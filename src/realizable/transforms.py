"""Time changes, term powers, scaling, and almost-realizability multipliers.

Sampling a sequence along h (a_n -> a_{h(n)}) preserves realizability when h
is a monomial c*n^k and for essentially no other polynomial; raising terms to
polynomial powers a_n^{h(n)} with h in N[x] always preserves it.  When a
sequence narrowly misses condition (D), the least C with (C a_n) passing up
to the horizon is the lcm of the denominators of D_n(a)/n: that constant is
the whole content of "almost realizable", made effective here.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext
from math import gcd, lcm, log10
from typing import Sequence, Union

from . import _public
from .numtheory import factorize
from .realizability import DoldRecord, RealizabilityReport, _records, check_realizable
from .sequences import (
    EXACT_CONTEXT,
    _QUOTED_DIGITS,
    InsufficientPrefixError,
    LinearRecurrence,
    Seq,
    _digit_count,
    _quoted,
    _refuse_below,
    linear_recurrence_term,
)

__all__ = _public(__name__)


@dataclass(frozen=True)
class Monomial:
    """Time change n -> n^k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("monomial exponent k must be >= 1")


@dataclass(frozen=True)
class ExplicitTable:
    """Tabulated time change: entry n (1-indexed) is h(n), an integral index >= 1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("an explicit table needs at least one entry")
        _refuse_below(Seq(self.values), 1, "table entries are indices >= 1; h({n}) = {t}")


TimeChange = Union[Monomial, ExplicitTable]


@dataclass(frozen=True)
class IntPolynomial:
    """c_0 + c_1 x + ... + c_d x^d with non-negative integer coefficients,
    so evaluation at any n >= 0 is >= 0."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.coefficients:
            raise ValueError("a polynomial needs at least one coefficient")
        for c in self.coefficients:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"coefficients must be non-negative ints, got {_quoted(c)}")

    def __call__(self, n: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * n + c
        return value


@dataclass(frozen=True)
class MultiplierReport:
    """Least multiplier making condition (D) hold up to the horizon.

    multiplier = lcm of the denominators of D_n(a)/n for n <= N; sign_ok
    records whether condition (S) already held (no multiplier can fix a
    negative Dold value).  denominators[n-1] is the reduced denominator at n.
    """

    horizon: int
    multiplier: int
    sign_ok: bool
    denominators: tuple[int, ...]


def time_change_value(h: TimeChange, n: int) -> int:
    """h(n) for a monomial or tabulated time change."""
    if n < 1:
        raise ValueError("time changes are defined on n >= 1")
    if isinstance(h, Monomial):
        return n**h.k
    if n > len(h.values):
        raise ValueError(f"explicit table has {len(h.values)} entries; h({n}) unknown")
    return h.values[n - 1]


def required_source_length(h: TimeChange, N: int) -> int:
    """Largest source index the first N sampled terms touch."""
    if N < 1:
        raise ValueError("need N >= 1")
    if isinstance(h, Monomial):
        return N**h.k  # n^k grows with n
    return max(time_change_value(h, n) for n in range(1, N + 1))


def _fit(h: TimeChange, have: int) -> int:
    """Largest N with h(1), ..., h(N) all <= have.  For a monomial that is
    the integer k-th root of ``have``, and 1 when 2^k > have, so no power
    past ``have`` is built."""
    if isinstance(h, ExplicitTable):
        return next((n for n, v in enumerate(h.values) if v > have), len(h.values))
    if h.k >= have.bit_length():
        return 1
    x = 1 << -(-have.bit_length() // h.k)  # x^k >= 2^bits > have
    while True:  # Newton's step from above stops at the floor of the root
        y = ((h.k - 1) * x + have // x ** (h.k - 1)) // h.k
        if y >= x:
            return x
        x = y


def sample(a: Seq, h: TimeChange, N: int) -> Seq:
    """The time-changed prefix (a_{h(n)})_{n=1..N}.

    Rejects horizons whose sampling indices overflow the source prefix,
    reporting how long a source would have been needed.

    >>> sample(Seq((1, 1, 2, 3, 5, 8, 13, 21, 34)), Monomial(2), 3).terms
    (1, 3, 34)
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if N > _fit(h, len(a)):
        # log10 of N^k, N >= 2; k is capped so that the float product cannot
        # overflow, and past the cap it exceeds 4,300 whatever N is
        log_need = min(h.k, 10**5) * log10(N) if isinstance(h, Monomial) else 0
        need = None if log_need >= 4300 else required_source_length(h, N)
        if log_need >= _QUOTED_DIGITS:  # N^k, a long N named by its symbol
            base = N if _digit_count(N) <= _QUOTED_DIGITS else "N"
            length = f"length {base}^{_quoted(h.k)}"
        elif _digit_count(need) > _QUOTED_DIGITS:
            length = f"a {_digit_count(need):,}-digit length"  # a table entry
        else:
            length = f"length {need}"
        raise InsufficientPrefixError(
            f"sampling to N={_quoted(N)} needs a source prefix of {length}, "
            f"but only {len(a)} terms are available",
            required=None if need is None or _digit_count(need) > 4300 else int(need),
        )
    suffix = f"[n^{h.k}]" if isinstance(h, Monomial) else "[table]"
    return Seq(
        tuple(a[int(time_change_value(h, n))] for n in range(1, N + 1)),
        label=f"{a.label}{suffix}" if a.label else suffix.strip("[]"),
    )


def term_power(a: Seq, h: IntPolynomial, N: int) -> Seq:
    """Termwise powers (a_n ** h(n))_{n=1..N}, with 0**0 = 1.

    Terms must be non-negative (the inputs of interest are fixed-point
    counts); exponents h(n) are >= 0 by the coefficient invariant.
    """
    _refuse_below(a, 0, "termwise powers need a_n >= 0; a_{n} = {t}", N)
    with localcontext(EXACT_CONTEXT):
        terms = tuple(a[n] ** h(n) if h(n) else 1 for n in range(1, N + 1))
    return Seq(terms, label=f"{a.label}^h" if a.label else "")


def scale(a: Seq, C: int) -> Seq:
    """The scaled prefix (C a_n); C >= 1 keeps counts meaningful."""
    if C < 1:
        raise ValueError("the multiplier C must be >= 1")
    with localcontext(EXACT_CONTEXT):
        terms = tuple(C * t for t in a.terms)
    return Seq(terms, label=f"{C}*{a.label}" if a.label else f"{C}*a")


def minimal_multiplier(a: Seq, N: int) -> MultiplierReport:
    """Least C >= 1 with (C a_n) satisfying condition (D) for all n <= N.

    C is exactly lcm over n of the reduced denominator of D_n(a)/n, since
    the transform is linear: D_n(C a) = C D_n(a).  Negative terms are
    rejected just like in the checker.
    """
    _refuse_below(a, 0, "multiplier analysis needs a_n >= 0; a_{n} = {t}", N)
    return _multiplier_report(_records(a, N))


def denominator_prime_scan(a: Seq, N: int) -> set[int]:
    """Primes dividing some reduced denominator of D_n(a)/n, n <= N.

    A set that keeps growing as N does is a fingerprint of sequences that
    are not almost realizable: no single constant clears every denominator.
    """
    report = minimal_multiplier(a, N)
    primes: set[int] = set()
    for den in report.denominators:
        if den > 1:
            primes.update(factorize(den))
    return primes


@dataclass(frozen=True)
class LucaWardParameters:
    """Worked parameter set for the scaled power-sampling congruence test.

    The number-field data (splitting-field discriminant, Galois exponent and
    order) are supplied, not computed: deriving them is out of scope, so the
    table records values that the shipped tests verify *behaviorally* (the
    congruence holds at the advertised multiplier and exponents).
    """

    name: str
    recurrence: LinearRecurrence
    polynomial_discriminant: int
    field_discriminant: int
    galois_exponent: int
    galois_order: int

    @property
    def congruence_multiplier(self) -> int:
        return lcm(abs(self.field_discriminant), abs(self.polynomial_discriminant))

    def admissible_exponents(self, upto: int) -> list[int]:
        """Multiples of the Galois exponent that are >= the group order."""
        e = self.galois_exponent
        return [s for s in range(e, upto + 1, e) if s >= self.galois_order]


LUCA_WARD_PARAMETER_SETS: tuple[LucaWardParameters, ...] = (
    LucaWardParameters(
        name="fibonacci",
        recurrence=LinearRecurrence((1, 1), (1, 1)),
        polynomial_discriminant=5,
        field_discriminant=5,
        galois_exponent=2,
        galois_order=2,
    ),
    LucaWardParameters(
        name="tribonacci",
        recurrence=LinearRecurrence((1, 1, 1), (1, 1, 2)),
        polynomial_discriminant=-44,
        field_discriminant=-21296,  # - (2^4 * 11^3), splitting field of x^3 - x^2 - x - 1
        galois_exponent=6,
        galois_order=6,
    ),
)


def luca_ward_check(
    rec: LinearRecurrence, M: int, s: int, N: int
) -> RealizabilityReport:
    """Horizon check of the scaled, power-sampled recurrence (M u_{n^s}).

    Terms at the huge indices n^s come one by one from linear_recurrence_term,
    so no n^s-term prefix is ever materialized.  With M a multiple of
    lcm(|field discriminant|, |polynomial discriminant|) and s a multiple of
    the Galois exponent at least the group order, condition (D) is a theorem;
    condition (S) can still fail and is reported as data.
    """
    if M < 1:
        raise ValueError("the multiplier M must be >= 1")
    if s < 1:
        raise ValueError("the sampling exponent s must be >= 1")
    if N < 1:
        raise ValueError("need N >= 1")
    with localcontext(EXACT_CONTEXT):
        terms = tuple(M * linear_recurrence_term(rec, n**s) for n in range(1, N + 1))
    return check_realizable(Seq(terms, label=f"{M}*u[n^{s}]"), N)


def _checked_multiplier(a: Seq, N: int) -> tuple[RealizabilityReport, MultiplierReport]:
    """check_realizable(a, N) and minimal_multiplier(a, N) from one Dold table."""
    _refuse_below(a, 0, "multiplier analysis needs a_n >= 0; a_{n} = {t}", N)
    report = check_realizable(a, N)
    return report, _multiplier_report(report.records)


def _multiplier_report(records: Sequence[DoldRecord]) -> MultiplierReport:
    """Multiplier analysis of the records for n = 1..N: the reduced
    denominator of D_n/n is n / gcd(D_n, n) = n / gcd(D_n mod n, n)."""
    denominators = tuple(r.n // gcd(r.dold_mod_n, r.n) for r in records)
    return MultiplierReport(
        horizon=len(denominators),
        multiplier=lcm(*denominators),
        sign_ok=all(r.sign_ok for r in records),
        denominators=denominators,
    )
