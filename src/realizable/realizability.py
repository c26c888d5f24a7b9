"""The Dold transform and horizon tests for realizability.

A sequence (a_n) of non-negative integers counts the period-n points of some
map exactly when, for every n, the Dold transform

    D_n(a) = sum of mu(n/d) a_d over divisors d of n

is divisible by n (condition D) and non-negative (condition S); D_n(a)/n is
then the number of length-n orbits.  A finite prefix can only be checked up
to its horizon N, so a clean pass is reported as "consistent-up-to-N", never
as "realizable": horizon checks refute, they do not prove.

Prefix checks compute the whole table D_1(a), ..., D_N(a) at once, by
Moebius inversion of a_n = sum of D_d over d | n one prime at a time;
``dold_transform`` is the single-index form.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import _public
from .numtheory import divisors, mobius, primes_upto
from .sequences import EXACT_CONTEXT, RatSeq, Seq, _refuse_below

__all__ = _public(__name__)

VERDICT_CONSISTENT = "consistent-up-to-N"
VERDICT_FAILS_D = "fails-D"
VERDICT_FAILS_S = "fails-S"
VERDICT_FAILS_BOTH = "fails-both"


@dataclass(frozen=True)
class DoldRecord:
    """One row of a horizon check: everything the verdict at index n rests on."""

    n: int
    dold_value: int
    dold_mod_n: int  # least non-negative residue of dold_value mod n
    sign_ok: bool  # dold_value >= 0       (condition S at n)
    divisibility_ok: bool  # dold_mod_n == 0      (condition D at n)

    @property
    def ok(self) -> bool:
        return self.sign_ok and self.divisibility_ok


@dataclass(frozen=True)
class RealizabilityReport:
    """Outcome of checking a prefix up to its horizon.

    ``first_failure`` is (n, which) for the smallest failing index, where
    ``which`` is "D", "S", or "both" describing what fails *at that n*;
    the verdict aggregates every violated condition across the horizon.
    """

    horizon: int
    records: tuple[DoldRecord, ...]
    verdict: str
    first_failure: tuple[int, str] | None

    @property
    def consistent(self) -> bool:
        return self.verdict == VERDICT_CONSISTENT


class DivisibilityResult(NamedTuple):
    ok: bool
    first_failure: tuple[int, int] | None  # (m, n): m | n but a_m does not divide a_n


def dold_transform(a: Seq, n: int) -> int:
    """D_n(a) = sum of mu(n/d) a_d over d | n.  Linear in a.

    >>> dold_transform(Seq((1, 3, 4, 7, 11, 18)), 6)
    12
    """
    a.require_horizon(n)  # D_n reads a_1, ..., a_n
    with localcontext(EXACT_CONTEXT):
        return sum(mobius(n // d) * a[d] for d in divisors(n))


def orbit_counts(a: Seq, N: int) -> RatSeq:
    """Candidate orbit counts b_n = D_n(a)/n for n = 1..N, as exact rationals.

    For a genuine fixed-point count every b_n is a non-negative integer; a
    negative or fractional entry is a certificate of non-realizability.

    >>> [str(b) for b in orbit_counts(Seq((1, 1, 1, 1, 6)), 5)]
    ['1', '0', '0', '0', '1']
    """
    a.require_horizon(N)
    return RatSeq(
        tuple(Fraction(int(r.dold_value), r.n) for r in _records(a, N)),
        label=f"orbits({a.label})" if a.label else "orbits",
    )


def check_realizable(a: Seq, N: int) -> RealizabilityReport:
    """Test conditions (D) and (S) for every n <= N.

    The prefix must be non-negative throughout (fixed-point counts cannot be
    negative; reject rather than guess what a signed input means).
    """
    a.require_horizon(N)
    _refuse_below(a, 0, "fixed-point counts are non-negative; a_{n} = {t} is signed input")
    records = _records(a, N)
    first = next((r for r in records if not r.ok), None)
    # what fails at one index is the suffix of its own verdict: "D", "S" or "both"
    first_failure = (
        None if first is None else (first.n, _verdict((first,)).removeprefix("fails-"))
    )
    return RealizabilityReport(
        horizon=N, records=records, verdict=_verdict(records), first_failure=first_failure
    )


def divisibility_check(a: Seq, N: int) -> DivisibilityResult:
    """Does a_m | a_n whenever m | n, for all n <= N?

    A necessary condition for some algebraic realizations, not for
    realizability itself.  Zero terms are rejected (0 | 0 debates are not
    worth having).  The first failing pair is scanned in order of n, then m.

    >>> divisibility_check(Seq((1, 3, 4, 7, 11, 18)), 6)
    DivisibilityResult(ok=False, first_failure=(2, 4))
    """
    a.require_horizon(N)
    for n in range(1, N + 1):
        if a[n] == 0:
            raise ValueError(f"divisibility check needs nonzero terms; a_{n} = 0")
    with localcontext(EXACT_CONTEXT):
        for n in range(1, N + 1):
            for m in divisors(n)[:-1]:
                if a[n] % a[m] != 0:
                    return DivisibilityResult(False, (m, n))
    return DivisibilityResult(True, None)


def _records(a: Seq, N: int) -> tuple[DoldRecord, ...]:
    """One DoldRecord per n <= N.  The residue is taken once, as an int: a
    Decimal remainder truncates toward zero, so it can be negative or -0."""
    records = []
    with localcontext(EXACT_CONTEXT):
        for n, value in enumerate(_dold_values(a, N), start=1):
            residue = int(value % n) % n
            records.append(
                DoldRecord(
                    n=n,
                    dold_value=value,
                    dold_mod_n=residue,
                    sign_ok=value >= 0,
                    divisibility_ok=residue == 0,
                )
            )
    return tuple(records)


def _dold_values(a: Seq, N: int) -> list[int]:
    """[D_1(a), ..., D_N(a)] in O(N log log N) subtractions, no factoring.

    a_n is the sum of D_d over d | n; removing each prime p in turn
    (b_m -= b_{m/p} for p | m, largest m first) inverts that sum.  The values
    have the terms' type, int or Decimal.
    """
    b = [0, *a.terms[:N]]
    for p in primes_upto(N):
        for m in range(N - N % p, p - 1, -p):
            b[m] -= b[m // p]
    return b[1:]


def _verdict(records: Sequence[DoldRecord]) -> str:
    """Aggregate verdict: which of conditions (D) and (S) fail somewhere."""
    d_violated = any(not r.divisibility_ok for r in records)
    s_violated = any(not r.sign_ok for r in records)
    if d_violated and s_violated:
        return VERDICT_FAILS_BOTH
    if d_violated:
        return VERDICT_FAILS_D
    if s_violated:
        return VERDICT_FAILS_S
    return VERDICT_CONSISTENT
