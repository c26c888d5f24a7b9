"""Independent oracles the tests compare the library against, and one
shared assertion on the command line's refusals.

Everything here is deliberately naive: enumeration and exact power series,
no shared code with the package beyond basic types.  Slow is fine; wrong is
not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial


def permutation_power_fixed_counts(succ: list[int], N: int) -> list[int]:
    """Fixed points of the n-th power for n = 1..N, by actually iterating.

    succ is a successor array on points 1..len(succ).
    """
    counts = []
    power = list(range(1, len(succ) + 1))  # identity
    for _ in range(N):
        power = [succ[p - 1] for p in power]
        counts.append(sum(1 for i, p in enumerate(power, start=1) if p == i))
    return counts


def cycle_lengths_of(succ: list[int]) -> dict[int, int]:
    """Cycle type of a successor array by walking the orbits."""
    seen = [False] * len(succ)
    counts: dict[int, int] = {}
    for start in range(1, len(succ) + 1):
        if seen[start - 1]:
            continue
        length = 0
        p = start
        while not seen[p - 1]:
            seen[p - 1] = True
            p = succ[p - 1]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return counts


def stirling1_by_enumeration(n: int, k: int) -> int:
    """Permutations of n symbols with exactly k cycles, counted one by one."""
    total = 0
    for perm in permutations(range(1, n + 1)):
        cycles = sum(cycle_lengths_of(list(perm)).values())
        if cycles == k:
            total += 1
    return total


def set_partitions(items: list[int]):
    """Yield all partitions of items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def stirling2_by_enumeration(n: int, k: int) -> int:
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def binary_lyndon_counts(N: int) -> list[int]:
    """Closed orbits of length n of the full 2-shift, n = 1..N, by listing
    all binary words and grouping them into rotation classes."""
    out = []
    for n in range(1, N + 1):
        aperiodic = 0
        for w in range(2**n):
            bits = [(w >> i) & 1 for i in range(n)]
            period = next(
                p
                for p in range(1, n + 1)
                if n % p == 0 and bits == bits[p:] + bits[:p]
            )
            if period == n:
                aperiodic += 1
        out.append(aperiodic // n)
    return out


def sech_series_coefficients(M: int) -> list[Fraction]:
    """Taylor coefficients of 2/(e^t + e^{-t}) up to t^M, via series reciprocal."""
    cosh = [
        Fraction(1, factorial(m)) if m % 2 == 0 else Fraction(0) for m in range(M + 1)
    ]
    recip = [Fraction(1)]
    for m in range(1, M + 1):
        recip.append(-sum(cosh[j] * recip[m - j] for j in range(1, m + 1)))
    return recip


def bernoulli_by_series(M: int) -> list[Fraction]:
    """B_0..B_M from t/(e^t - 1): reciprocal of sum_{k>=0} t^k/(k+1)!."""
    denom = [Fraction(1, factorial(k + 1)) for k in range(M + 1)]
    recip = [Fraction(1)]
    for m in range(1, M + 1):
        recip.append(-sum(denom[j] * recip[m - j] for j in range(1, m + 1)))
    return [recip[m] * factorial(m) for m in range(M + 1)]


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_mobius(n: int) -> int:
    # via the defining recursion sum_{d|n} mu(d) = [n == 1]
    if n == 1:
        return 1
    return -sum(naive_mobius(d) for d in naive_divisors(n)[:-1])


def naive_dold(a: list[int], n: int) -> int:
    """Divisor sum written directly from the definition; a is 0-based a_1.."""
    return sum(naive_mobius(n // d) * a[d - 1] for d in naive_divisors(n))


def falling_factorial(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


def naive_sample_fit(h: int | tuple[int, ...], have: int) -> int:
    """Largest N with h(1), ..., h(N) all <= have, one index at a time.

    h is a monomial exponent k (h(n) = n^k) or the tuple h(1), h(2), ...
    of a finite table.
    """
    N = 0
    while isinstance(h, int) or N < len(h):
        if ((N + 1) ** h if isinstance(h, int) else h[N]) > have:
            break
        N += 1
    return N


def assert_bounded_refusal(code: int, out: str, err: str) -> None:
    """A refusal of the command line, however large its input: exit 2,
    nothing on stdout, and one ``error:`` line of under 200 bytes that is
    not CPython's message for an int past its digit limit."""
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) < 200 and "Exceeds the limit" not in err
