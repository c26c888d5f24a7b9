"""Reference arithmetic the benchmark checks the program's outputs against.

Nothing here imports the package under test.  Each routine takes a different
route from the library to the same numbers: the Dold transform by in-place
Moebius inversion prime by prime, secant numbers by the Seidel boustrophedon,
recurrence terms modulo a small modulus, primality with more bases.  Where an
exact big value would cost as much as the program's own work, the check runs
modulo a 61-bit prime or on the last digits instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, log10

# modulus for checking huge Dold values without recomputing them exactly
Q61 = (1 << 61) - 1

# A000928: the irregular primes below 600
IRREGULAR_PRIMES_600 = (
    37, 59, 67, 101, 103, 131, 149, 157, 233, 257, 263, 271, 283, 293, 307,
    311, 347, 353, 379, 389, 401, 409, 421, 433, 461, 463, 467, 491, 523, 541,
    547, 557, 577, 587, 593,
)

_LOG10_2 = log10(2)


def primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def dold_table(terms: list[int]) -> list[int]:
    """D_1..D_N of a_1..a_N: for each prime p, b[m] -= b[m/p] over the
    multiples m of p in descending order (the Moebius function as a product
    of (1 - p^-s) factors)."""
    N = len(terms)
    b = [0, *terms]
    for p in primes_upto(N):
        for m in range(N - N % p, 0, -p):
            b[m] -= b[m // p]
    return b[1:]


def verdict(dold: list[int]) -> tuple[str, tuple[int, str] | None]:
    """(verdict, first_failure) exactly as the report documents spell them."""
    first = None
    any_d = any_s = False
    for n, value in enumerate(dold, start=1):
        bad_d, bad_s = value % n != 0, value < 0
        any_d, any_s = any_d or bad_d, any_s or bad_s
        if first is None and (bad_d or bad_s):
            first = (n, "both" if bad_d and bad_s else ("D" if bad_d else "S"))
    if any_d and any_s:
        return "fails-both", first
    if any_d:
        return "fails-D", first
    return ("fails-S", first) if any_s else ("consistent-up-to-N", None)


def fiblike(c: int, N: int) -> list[int]:
    terms = [1, c]
    while len(terms) < N:
        terms.append(terms[-1] + terms[-2])
    return terms[:N]


def secant_numbers(N: int) -> list[int]:
    """|E_2|, |E_4|, ..., |E_2N| as every other zigzag number (Seidel)."""
    row, zigzag = [1], [1]
    for _ in range(2 * N):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        zigzag.append(row[-1])
    return zigzag[2::2]


def stirling_diagonal(kind: int, k: int, N: int) -> list[int]:
    """S(k, k), S(k+1, k), ..., S(N+k-1, k): unsigned first kind (kind 1)
    or second kind (kind 2), from the triangle's row recurrence."""
    row, column = [1] + [0] * k, []
    for m in range(1, N + k):
        row = [0] + [row[j - 1] + ((m - 1) if kind == 1 else j) * row[j] for j in range(1, k + 1)]
        column.append(row[k])
    return column[k - 1 : N + k - 1]


def tau_beta(bernoulli: list[Fraction], N: int) -> tuple[list[int], list[int]]:
    quotients = [abs(bernoulli[2 * n]) / (2 * n) for n in range(1, N + 1)]
    return [q.numerator for q in quotients], [q.denominator for q in quotients]


def valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def p_part(terms: list[int], p: int) -> list[int]:
    return [p ** valuation(t, p) for t in terms]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the first 24 primes as bases: a wider base set than
    the library's, exact far past the sizes checked here."""
    if n < 2:
        return False
    bases = primes_upto(90)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def recurrence_term_mod(coefficients: tuple[int, ...], initial: tuple[int, ...], m: int, q: int) -> int:
    """u_m mod q by square-and-multiply on the state-transition matrix."""
    k = len(coefficients)
    if m <= k:
        return initial[m - 1] % q

    def mul(A, B):
        return [[sum(A[i][t] * B[t][j] for t in range(k)) % q for j in range(k)] for i in range(k)]

    step = [[c % q for c in coefficients]] + [[int(j == i) for j in range(k)] for i in range(k - 1)]
    acc = [[int(i == j) for j in range(k)] for i in range(k)]
    e = m - k
    while e:
        if e & 1:
            acc = mul(acc, step)
        step = mul(step, step)
        e >>= 1
    state = [initial[k - 1 - j] for j in range(k)]
    return sum(acc[0][j] * state[j] for j in range(k)) % q


def denominators(dold: list[int]) -> list[int]:
    return [n // gcd(value, n) for n, value in enumerate(dold, start=1)]


def multiplier(dens: list[int]) -> int:
    return lcm(*dens)


def prime_factors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def decimal_fingerprint_ok(text: str, value: int) -> bool:
    """Does a decimal string plausibly spell value?  Checks the sign, the
    last nine digits and the digit count, all without an int/str conversion
    of the whole number (which costs as much as the program's own output)."""
    negative = value < 0
    if text.startswith("-") != negative:
        return False
    digits = text[1:] if negative else text
    value = abs(value)
    if value < 10**9:
        return digits == str(value)
    bits = value.bit_length()
    shortest, longest = int((bits - 1) * _LOG10_2) + 1, int(bits * _LOG10_2) + 1
    return shortest <= len(digits) <= longest and digits[-9:] == f"{value % 10**9:09d}"


def digest(obj) -> str:
    """sha256 of a canonical rendering of a result: ints in hex (linear
    time at any size), dataclasses by field, sets sorted."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, bool) or x is None:
            h.update(repr(x).encode())
        elif isinstance(x, int):
            h.update(b"i" + hex(x).encode())
        elif isinstance(x, Fraction):
            h.update(b"q")
            feed(x.numerator)
            feed(x.denominator)
        elif isinstance(x, str):
            h.update(b"s" + repr(x).encode())
        elif is_dataclass(x):
            h.update(type(x).__name__.encode() + b"(")
            for f in fields(x):
                feed(getattr(x, f.name))
            h.update(b")")
        elif isinstance(x, dict):
            h.update(b"{")
            for key, value in x.items():
                feed(key)
                feed(value)
            h.update(b"}")
        elif isinstance(x, (set, frozenset)):
            feed(sorted(x))
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    feed(obj)
    return h.hexdigest()
