"""Local (prime-by-prime) realizability via p-part sequences.

The p-part of a positive integer x is p^(v_p(x)).  A sequence of positive
integers is locally realizable at p when its p-part sequence is realizable;
this refines the global test, and can fail at a prime even when the global
conditions hold.  Primes dividing no term have an all-ones p-part and are
trivially consistent, so only the support primes are worth a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext

from .numtheory import factorize, is_prime, padic_valuation
from .realizability import RealizabilityReport, check_realizable
from .sequences import EXACT_CONTEXT, Seq, _digit_count, _refuse_below

__all__ = [
    "LocalReport",
    "p_part",
    "check_local",
    "support_primes",
    "check_everywhere_local",
]

_FACTOR_DIGITS = 4300  # support_primes factors no longer term
_POSITIVE = (
    " needs strictly positive terms; a_{n} = {t} "
    "(zeros pass the global check but have no p-part)"
)


@dataclass(frozen=True)
class LocalReport:
    """Horizon check of the p-part sequence at one prime."""

    prime: int
    p_part_sequence: Seq
    report: RealizabilityReport

    @property
    def consistent(self) -> bool:
        return self.report.consistent


def p_part(a: Seq, p: int) -> Seq:
    """Termwise p-part: p^(v_p(a_n)).

    Zero terms are rejected here even though the global checker accepts
    them: v_p(0) is infinite, so a zero has no p-part.  p-parts are ints.

    >>> p_part(Seq((1, 1, 1, 1, 6)), 2).terms
    (1, 1, 1, 1, 2)
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _refuse_below(a, 1, "p-part localization" + _POSITIVE)
    with localcontext(EXACT_CONTEXT):
        parts = tuple(p ** padic_valuation(t, p) for t in a.terms)
    return Seq(parts, label=f"{p}-part({a.label})" if a.label else f"{p}-part")


def check_local(a: Seq, p: int, N: int) -> LocalReport:
    """Realizability check of the p-part sequence up to N."""
    parts = p_part(a, p)
    return LocalReport(prime=p, p_part_sequence=parts, report=check_realizable(parts, N))


def support_primes(a: Seq, N: int) -> list[int]:
    """Every prime dividing at least one of a_1..a_N, ascending.

    Factors the values by trial division with a rho fallback, so it is meant
    for smooth or modest terms, and refuses any of over 4,300 digits first;
    localizing at a *given* prime never needs this, even for huge terms.

    >>> support_primes(Seq((1, 3, 4, 7, 11, 18)), 6)
    [2, 3, 7, 11]
    """
    a.require_horizon(N)
    _refuse_below(a, 1, "support scan" + _POSITIVE)
    for n in range(1, N + 1):
        if (digits := _digit_count(a[n])) > _FACTOR_DIGITS:
            raise ValueError(f"a_{n} has {digits:,} digits, too many to factor (max 4,300)")
    primes: set[int] = set()
    for n in range(1, N + 1):
        if a[n] > 1:
            primes.update(factorize(int(a[n])))
    return sorted(primes)


def check_everywhere_local(a: Seq, N: int) -> list[LocalReport]:
    """One LocalReport per support prime, ascending.

    An empty list means the prefix is all ones: every prime is then
    trivially consistent.  Primes outside the support never get a report;
    their p-part is identically one.
    """
    return [check_local(a, p, N) for p in support_primes(a, N)]
