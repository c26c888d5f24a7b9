"""Sequence types and exact generators for the families under study.

Sequences here are finite 1-indexed prefixes: ``a[n]`` is the n-th term with
n >= 1, matching how the arithmetic (divisor sums over d | n) is written on
paper.  All terms are exact: Python ints, or Fractions for rational data.
Integer prefixes may also hold integral ``decimal.Decimal`` terms, whose
conversion to and from decimal text is linear and has no digit limit.  The
kernels that compute on terms run on them under ``EXACT_CONTEXT`` whatever
the caller's context, except four that still need ints (ROADMAP item 1):
``orbit_counts`` raises TypeError, ``p_part`` and ``check_local`` raise
DivisionImpossible on terms past 28 digits, and ``realize_cycle_type``
raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
    localcontext,
)
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .numtheory import primes_upto

__all__ = [
    "EXACT_CONTEXT",
    "Seq",
    "RatSeq",
    "LinearRecurrence",
    "InsufficientPrefixError",
    "FIBONACCI",
    "linear_recurrence_terms",
    "linear_recurrence_term",
    "fibonacci_term",
    "fibonacci_like",
    "stirling_first",
    "stirling_second",
    "stirling_row_sequence",
    "euler_abs_sequence",
    "bernoulli_numbers",
    "tau_beta_sequences",
    "irregular_primes",
]


# Decimal arithmetic on integers under this context is exact or raises: no
# precision or exponent bound a result can reach, and any rounding trapped.
# Each kernel that computes on terms enters it itself, so its answer never
# depends on the caller's context.
EXACT_CONTEXT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation],
)
_ONE = Decimal(1)


class InsufficientPrefixError(ValueError):
    """A prefix is shorter than an operation needs.

    ``required`` carries the prefix length that would have sufficed, so
    callers can report exactly how much data to supply; it is None for a
    length too large to build (an n^k of more than 4,300 digits).
    """

    def __init__(self, message: str, required: int | None):
        super().__init__(message)
        self.required = required


class _Prefix:
    """Shared 1-indexed access for Seq and RatSeq; subclasses hold ``terms``."""

    terms: tuple

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, n: int):
        """a_n for 1 <= n <= len(self); there is no a_0."""
        if not isinstance(n, int) or n < 1:
            raise IndexError(f"sequence indices start at 1, got {n!r}")
        if n > len(self.terms):
            raise InsufficientPrefixError(
                f"term a_{n} requested but prefix has only {len(self.terms)} terms",
                required=n,
            )
        return self.terms[n - 1]

    def __iter__(self) -> Iterator:
        return iter(self.terms)

    def require_horizon(self, N: int) -> None:
        """Reject a horizon N the prefix cannot answer for: N < 1 or N > len."""
        if N < 1:
            raise ValueError("horizon N must be >= 1")
        if N > len(self.terms):
            raise InsufficientPrefixError(
                f"horizon N={N} exceeds the {len(self.terms)}-term prefix", required=N
            )


@dataclass(frozen=True)
class Seq(_Prefix):
    """Finite prefix (a_1, ..., a_N) of an integer sequence, 1-indexed.

    Terms are ints or finite Decimals with exponent 0.
    """

    terms: tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a sequence prefix needs at least one term")
        for t in terms:
            if isinstance(t, int):
                continue
            if not isinstance(t, Decimal):
                raise TypeError(f"terms must be ints, got {type(t).__name__}")
            if not t.same_quantum(_ONE):  # NaN, infinity or a nonzero exponent
                raise TypeError(f"Decimal terms need exponent 0, got {t}")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class RatSeq(_Prefix):
    """Finite 1-indexed prefix of exact rationals (Fractions auto-reduce)."""

    terms: tuple[Fraction, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(Fraction(t) for t in self.terms))
        if not self.terms:
            raise ValueError("a sequence prefix needs at least one term")


@dataclass(frozen=True)
class LinearRecurrence:
    """u_{n+k} = a_1 u_{n+k-1} + ... + a_k u_n with initial terms u_1..u_k.

    The trailing coefficient a_k must be nonzero (otherwise the order lies).
    """

    coefficients: tuple[int, ...]
    initial: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        object.__setattr__(self, "initial", tuple(self.initial))
        if not self.coefficients:
            raise ValueError("a recurrence needs order k >= 1")
        if self.coefficients[-1] == 0:
            raise ValueError("trailing coefficient a_k must be nonzero")
        if len(self.initial) != len(self.coefficients):
            raise ValueError(
                f"need exactly k={len(self.coefficients)} initial terms, "
                f"got {len(self.initial)}"
            )

    @property
    def order(self) -> int:
        return len(self.coefficients)


FIBONACCI = LinearRecurrence((1, 1), (1, 1))


def linear_recurrence_terms(rec: LinearRecurrence, N: int, label: str = "") -> Seq:
    """First N terms of the recurrence, by direct iteration.

    Only the nonzero a_i enter each sum, and a unit a_i adds u_(n-i) as it
    is, so no big term is copied by 0 + t or 1 * t.  Decimal initial terms
    give Decimal terms."""
    if N < 1:
        raise ValueError("need N >= 1")
    terms = list(rec.initial[:N])
    (i0, a0), *lags = [(-i, a) for i, a in enumerate(rec.coefficients, 1) if a]
    with localcontext(EXACT_CONTEXT):
        while len(terms) < N:
            u = terms[i0] if a0 == 1 else a0 * terms[i0]
            for i, a in lags:
                u += terms[i] if a == 1 else a * terms[i]
            terms.append(u or 0)  # a Decimal zero is -0 when a negative a_i met only zeros
    return Seq(tuple(terms), label=label)


def linear_recurrence_term(rec: LinearRecurrence, m: int) -> int:
    """u_m alone, from r(x) = x^(m-1) mod P(x) = x^k - a_1 x^(k-1) - ... - a_k:
    u_m = r_0 u_1 + ... + r_(k-1) u_k (Fiduccia, SIAM J. Comput. 1985).

    Left-to-right binary powering squares r at each bit of m - 1 (k(k+1)/2
    exact products), shifted up by one on a set bit to multiply by x, then
    folds each coefficient above x^(k-1) back with the small a_i.  Use this
    for huge isolated indices (sampling along n^j) where iterating to m would
    materialize millions of large terms.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    k = rec.order
    r = [1] + [0] * (k - 1)
    for bit in format(m - 1, "b"):
        shift = int(bit)
        p = [0] * (2 * k - 1 + shift)
        for i, ri in enumerate(r):
            p[2 * i + shift] += ri * ri
            for j in range(i + 1, k):
                p[i + j + shift] += ri * r[j] << 1
        while len(p) > k:  # x^d = x^(d-k) (a_1 x^(k-1) + ... + a_k)
            top = p.pop()
            for i, a in enumerate(rec.coefficients, 1):
                p[len(p) - i] += a * top
        r = p
    return sum(c * u for c, u in zip(r, rec.initial))


def fibonacci_term(m: int) -> int:
    """F_m with F_1 = F_2 = 1, at any index m >= 1."""
    return linear_recurrence_term(FIBONACCI, m)


def fibonacci_like(c: int, N: int) -> Seq:
    """(1, c, 1+c, 1+2c, 2+3c, ...): a_1 = 1, a_2 = c, then the Fibonacci rule.

    c = 3 gives the Lucas numbers (1, 3, 4, 7, 11, 18, ...).

    >>> fibonacci_like(3, 6).terms
    (1, 3, 4, 7, 11, 18)
    """
    return linear_recurrence_terms(
        LinearRecurrence((1, 1), (1, c)), N, label=f"fiblike({c})"
    )


def _stirling_column(kind: int, k: int, rows: int) -> list[int]:
    """Column k of the chosen Stirling triangle for row indices 0..rows."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    if k < 0:
        raise ValueError("need k >= 0")
    # row DP capped at column k; row[j] = S(m, j)
    row = [1] + [0] * k
    column = [row[k]]
    for m in range(1, rows + 1):
        new = [0] * (k + 1)
        for j in range(1, min(m, k) + 1):
            if kind == 1:
                new[j] = row[j - 1] + (m - 1) * row[j]
            else:
                new[j] = row[j - 1] + j * row[j]
        row = new
        column.append(row[k])
    return column


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n symbols
    with exactly k cycles.

    >>> stirling_first(4, 2)
    11
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _stirling_column(1, k, n)[n]


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n symbols into k
    nonempty blocks.

    >>> stirling_second(4, 2)
    7
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _stirling_column(2, k, n)[n]


def stirling_row_sequence(kind: int, k: int, N: int) -> Seq:
    """The k-th diagonal sequence (S(n+k-1, k))_{n=1..N} for the chosen kind.

    >>> stirling_row_sequence(2, 2, 4).terms
    (1, 3, 7, 15)
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if N < 1:
        raise ValueError("need N >= 1")
    column = _stirling_column(kind, k, N + k - 1)
    return Seq(tuple(column[k : N + k]), label=f"stirling{kind}(k={k})")


def _zigzag(M: int) -> Iterator[int]:
    """Yield the zigzag numbers z_0..z_M (A000111): secants at even indices,
    tangents at odd ones, so each caller keeps only the parity it reads.
    Seidel boustrophedon on one row kept in place: each row is the running
    sum, from 0, of the previous row read in reverse; z_n ends row n."""
    row = [1]
    yield 1
    for _ in range(M):
        row.append(0)
        row.reverse()
        for k in range(1, len(row)):
            row[k] += row[k - 1]
        yield row[-1]


def euler_abs_sequence(N: int) -> Seq:
    """(|E_2|, |E_4|, ..., |E_{2N}|): absolute zigzag (secant) numbers.

    E_n are the coefficients of 2/(e^t + e^{-t}) as an exponential generating
    function.  Indexing starts at n = 1, so E_0 = 1 is deliberately excluded.

    >>> euler_abs_sequence(5).terms
    (1, 5, 61, 1385, 50521)
    """
    if N < 1:
        raise ValueError("need N >= 1")
    return Seq(tuple(islice(_zigzag(2 * N), 2, None, 2)), label="|E_2n|")


def bernoulli_numbers(M: int) -> list[Fraction]:
    """Exact B_0, ..., B_M as a 0-indexed list, with the B_1 = -1/2 convention.

    Odd indices above 1 are zero; the even entries come from the tangent
    numbers T_n = z_{2n-1} as B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).

    >>> bernoulli_numbers(4)[2:]
    [Fraction(1, 6), Fraction(0, 1), Fraction(-1, 30)]
    """
    if M < 0:
        raise ValueError("need M >= 0")
    out = [Fraction(0)] * (M + 1)
    out[0] = Fraction(1)
    if M >= 1:
        out[1] = Fraction(-1, 2)
    tangents = islice(_zigzag(max(M - 1, 0)), 1, None, 2)
    for n, t in enumerate(tangents, start=1):
        q = 4**n
        out[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * t, q * (q - 1))
    return out


def tau_beta_sequences(N: int) -> tuple[Seq, Seq]:
    """Numerators and denominators of |B_{2n} / 2n| in lowest terms, n = 1..N.

    >>> tau, beta = tau_beta_sequences(6)
    >>> tau[1], beta[1], tau[6], beta[6]
    (1, 12, 691, 32760)
    """
    if N < 1:
        raise ValueError("need N >= 1")
    B = bernoulli_numbers(2 * N)
    taus, betas = [], []
    for n in range(1, N + 1):
        q = abs(B[2 * n]) / (2 * n)
        taus.append(q.numerator)
        betas.append(q.denominator)
    return Seq(tuple(taus), label="tau"), Seq(tuple(betas), label="beta")


def irregular_primes(bound: int) -> list[int]:
    """Irregular primes <= bound: p dividing the numerator of some B_k with
    k even and k <= p - 3 (the Kummer test, run on exact numerators).

    >>> irregular_primes(60)
    [37, 59]
    """
    if bound < 5:
        raise ValueError("need bound >= 5 (the test involves B_2, ..., B_{p-3})")
    B = bernoulli_numbers(bound - 3)
    out = []
    for p in primes_upto(bound):
        if any(B[k].numerator % p == 0 for k in range(2, p - 2, 2)):
            out.append(p)
    return out
