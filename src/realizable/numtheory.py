"""Exact elementary number theory: sieve, primality, factorization, valuations.

Indices fed to these functions stay small (a few thousand at most), while the
*values* being factored may be large but are expected to be smooth or to have
at most one big prime factor.  Everything is pure, deterministic, and exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

__all__ = [
    "primes_upto",
    "is_prime",
    "factorize",
    "mobius",
    "divisors",
    "padic_valuation",
]

# trial division covers everything below this bound before Pollard rho kicks in
_TRIAL_BOUND = 1 << 16

# Miller-Rabin on these bases is exact below _MR_BOUND, the least strong
# pseudoprime to all of them (Sorenson & Webster, Math. Comp. 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=64)
def _sieve(bound: int) -> tuple[int, ...]:
    if bound < 2:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, ascending.  Empty below 2.

    >>> primes_upto(20)
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    return list(_sieve(bound))


def is_prime(n: int) -> bool:
    """Exact below 3.317e24 (Miller-Rabin on the first 12 prime bases); at or
    above it, Baillie-PSW: a strong base-2 test and a strong Lucas test, which
    no composite is known to pass (Baillie & Wagstaff, Math. Comp. 1980)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < _MR_BOUND:
        return _strong_probable_prime(n, _MR_WITNESSES)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """Miller-Rabin for odd n prime to every base: with n - 1 = d 2^r and d
    odd, n passes base a if a^d = 1 or a^(d 2^i) = -1 (mod n) for some i < r;
    True if it passes them all."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 1 with Selfridge's parameters: the first
    D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.  With
    n + 1 = d 2^s and d odd, n passes if U_d = 0 or V_(d 2^i) = 0 (mod n)
    for some i < s."""
    if isqrt(n) ** 2 == n:  # no such D exists for a square
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in format(d, "b")[1:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _rho_split(n: int) -> int:
    """A nontrivial factor of odd composite n (Pollard rho, fixed schedule)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, keys ascending.

    n = 0 is rejected; factorize(1) == {}.

    >>> factorize(32760)
    {2: 3, 3: 2, 5: 1, 7: 1, 13: 1}
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    m = abs(n)
    out: dict[int, int] = {}
    for p in _sieve(_TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        stack = [m]
        while stack:
            q = stack.pop()
            if is_prime(q):
                out[q] = out.get(q, 0) + 1
            else:
                d = _rho_split(q)
                stack.append(d)
                stack.append(q // d)
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Moebius function: 0 on a squared factor, else (-1)^(number of primes).

    >>> [mobius(n) for n in range(1, 13)]
    [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    """
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    exponents = factorize(n).values()
    if any(e > 1 for e in exponents):
        return 0
    return -1 if len(exponents) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def padic_valuation(x: int, p: int) -> int:
    """Exponent of the prime p in x (x must be nonzero, p prime).

    >>> padic_valuation(32760, 3)
    2
    """
    if x == 0:
        raise ValueError("the p-adic valuation of 0 is infinite")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
