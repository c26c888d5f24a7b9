"""Constructive side: from a consistent prefix to a permutation realizing it.

Any prefix passing conditions (D) and (S) up to N is realized on [the horizon]
by a permutation with b_n = D_n(a)/n cycles of each length n <= N; its powers
have exactly a_n fixed points for n <= N.  This is the cheap half of the
theory: a horizon certificate made of actual points.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext

from .realizability import check_realizable
from .sequences import EXACT_CONTEXT, Seq, _integral, _quoted

__all__ = [
    "CycleType",
    "InconsistentPrefixError",
    "DEFAULT_POINT_CAP",
    "realize_cycle_type",
    "fixed_points",
    "fix_count_sequence",
    "verify_realization",
    "explicit_permutation",
]

DEFAULT_POINT_CAP = 10**6


class InconsistentPrefixError(ValueError):
    """The prefix fails a realizability condition, so nothing realizes it.

    ``n`` is the smallest failing index and ``condition`` names what fails
    there ("D", "S", or "both").
    """

    def __init__(self, message: str, n: int, condition: str):
        super().__init__(message)
        self.n = n
        self.condition = condition


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths: counts[L] = how many length-L cycles.

    Zero counts are dropped at construction; lengths are kept ascending.
    """

    counts: dict[int, int]  # the counts are integral like Seq terms: int or Decimal

    def __post_init__(self) -> None:
        cleaned: dict[int, int] = {}
        for length in sorted(self.counts):
            count = self.counts[length]
            if not isinstance(length, int) or length < 1:
                raise ValueError(f"cycle lengths are positive ints, got {length!r}")
            if not _integral(count) or count < 0:
                raise ValueError(f"cycle counts are non-negative ints, got {count!r}")
            if count:
                cleaned[length] = count
        object.__setattr__(self, "counts", cleaned)

    @property
    def total_points(self) -> int:
        with localcontext(EXACT_CONTEXT):
            return sum(length * count for length, count in self.counts.items())

    def __iter__(self):
        return iter(self.counts.items())


def realize_cycle_type(a: Seq, N: int) -> CycleType:
    """Cycle type {n: D_n(a)/n, n <= N} of a permutation realizing the prefix.

    Raises InconsistentPrefixError (with the failing index) when no
    permutation can: the orbit counts must be non-negative integers.

    >>> realize_cycle_type(Seq((2, 4, 8, 16)), 4).counts
    {1: 2, 2: 1, 3: 2, 4: 3}
    """
    report = check_realizable(a, N)
    if not report.consistent:
        n, condition = report.first_failure
        raise InconsistentPrefixError(
            f"prefix fails condition ({condition}) at n={n}; no realization exists",
            n=n,
            condition=condition,
        )
    with localcontext(EXACT_CONTEXT):
        return CycleType({r.n: r.dold_value // r.n for r in report.records})


def fixed_points(ct: CycleType, n: int) -> int:
    """Fixed points of the n-th power: sum of L * counts[L] over L | n.

    Defined for every n >= 1, beyond any horizon.

    >>> fixed_points(CycleType({1: 1, 5: 1}), 5)
    6
    """
    if n < 1:
        raise ValueError("need n >= 1")
    with localcontext(EXACT_CONTEXT):
        return sum(length * count for length, count in ct if n % length == 0)


def fix_count_sequence(ct: CycleType, N: int, label: str = "") -> Seq:
    """The prefix (fixed_points(ct, n))_{n=1..N}: realizable by construction."""
    if N < 1:
        raise ValueError("need N >= 1")
    return Seq(tuple(fixed_points(ct, n) for n in range(1, N + 1)), label=label)


def verify_realization(ct: CycleType, a: Seq, N: int) -> bool:
    """Does the cycle type reproduce a_n exactly for every n <= N?"""
    a.require_horizon(N)
    return all(fixed_points(ct, n) == a[n] for n in range(1, N + 1))


def explicit_permutation(ct: CycleType, cap: int = DEFAULT_POINT_CAP) -> list[int]:
    """Successor array of a concrete permutation with the given cycle type.

    Points are labeled 1..total; entry i-1 holds the image of point i.
    Layout is deterministic: cycles laid out by ascending length, each on
    consecutive labels.

    >>> explicit_permutation(CycleType({1: 1, 5: 1}))
    [1, 3, 4, 5, 6, 2]
    """
    total = ct.total_points
    if total > cap:
        points = _quoted(total, "points")
        raise ValueError(f"cycle type needs {points}, exceeding the cap of {cap}")
    succ = [0] * int(total)
    next_label = 1
    for length, count in ct.counts.items():
        for _ in range(int(count)):
            first = next_label
            for offset in range(length):
                point = first + offset
                succ[point - 1] = first if offset == length - 1 else point + 1
            next_label += length
    return succ
