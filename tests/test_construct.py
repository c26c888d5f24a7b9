import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.construct import (
    CycleType,
    InconsistentPrefixError,
    explicit_permutation,
    fix_count_sequence,
    fixed_points,
    realize_cycle_type,
    verify_realization,
)
from realizable.sequences import InsufficientPrefixError, Seq, fibonacci_like

from helpers import cycle_lengths_of, permutation_power_fixed_counts

EQ_CYCLE_TYPE = CycleType({1: 1, 5: 1})


# ------------------------------------------------------------- cycle types


def test_cycle_type_normalizes():
    ct = CycleType({5: 1, 1: 2, 3: 0})
    assert ct.counts == {1: 2, 5: 1}  # zero counts dropped, lengths ascending
    assert list(ct) == [(1, 2), (5, 1)]
    assert ct.total_points == 7


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType({0: 1})
    with pytest.raises(ValueError):
        CycleType({-2: 1})
    with pytest.raises(ValueError):
        CycleType({2: -1})
    with pytest.raises(ValueError):
        CycleType({2.0: 1})


def test_empty_cycle_type_is_fine():
    ct = CycleType({})
    assert ct.total_points == 0
    assert fixed_points(ct, 12) == 0
    assert explicit_permutation(ct) == []


def test_fixed_points_counts_divisor_lengths():
    assert fixed_points(EQ_CYCLE_TYPE, 1) == 1
    assert fixed_points(EQ_CYCLE_TYPE, 4) == 1
    assert fixed_points(EQ_CYCLE_TYPE, 5) == 6
    assert fixed_points(EQ_CYCLE_TYPE, 10) == 6
    with pytest.raises(ValueError):
        fixed_points(EQ_CYCLE_TYPE, 0)


def test_fix_count_sequence_prefix():
    a = fix_count_sequence(EQ_CYCLE_TYPE, 10)
    assert a.terms == (1, 1, 1, 1, 6, 1, 1, 1, 1, 6)


# ------------------------------------------------------------ realization


def test_realize_lucas_prefix():
    lucas = fibonacci_like(3, 10)
    ct = realize_cycle_type(lucas, 10)
    assert ct.counts == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 4, 8: 5, 9: 8, 10: 11}
    assert verify_realization(ct, lucas, 10)
    assert fix_count_sequence(ct, 10).terms == lucas.terms


def test_realize_eq_cycle_prefix():
    a = fix_count_sequence(EQ_CYCLE_TYPE, 30)
    assert realize_cycle_type(a, 30).counts == {1: 1, 5: 1}


def test_realize_zero_sequence():
    assert realize_cycle_type(Seq((0, 0, 0)), 3).counts == {}


def test_realize_rejects_inconsistent_prefixes():
    with pytest.raises(InconsistentPrefixError) as err:
        realize_cycle_type(fibonacci_like(1, 10), 10)
    assert err.value.n == 3
    assert err.value.condition == "D"
    with pytest.raises(InconsistentPrefixError) as err:
        realize_cycle_type(Seq((3, 1)), 2)
    assert err.value.condition == "S"


def test_verify_realization_detects_mismatch():
    assert not verify_realization(CycleType({1: 2}), Seq((2, 3)), 2)


def test_verify_realization_on_a_short_prefix_names_the_horizon():
    with pytest.raises(InsufficientPrefixError) as err:
        verify_realization(EQ_CYCLE_TYPE, Seq((1, 1, 1)), 5)
    assert err.value.required == 5


# ---------------------------------------------------- explicit permutation


def test_explicit_permutation_layout():
    assert explicit_permutation(EQ_CYCLE_TYPE) == [1, 3, 4, 5, 6, 2]


def test_explicit_permutation_is_consistent_with_its_cycle_type():
    ct = CycleType({1: 2, 2: 1, 3: 2})
    succ = explicit_permutation(ct)
    assert sorted(succ) == list(range(1, ct.total_points + 1))  # a bijection
    assert cycle_lengths_of(succ) == ct.counts


def test_explicit_permutation_cap():
    with pytest.raises(ValueError, match="6"):
        explicit_permutation(EQ_CYCLE_TYPE, cap=5)
    assert explicit_permutation(EQ_CYCLE_TYPE, cap=6) == [1, 3, 4, 5, 6, 2]


def test_permutation_powers_reproduce_the_prefix():
    a = fix_count_sequence(EQ_CYCLE_TYPE, 30)
    succ = explicit_permutation(realize_cycle_type(a, 30))
    assert permutation_power_fixed_counts(succ, 30) == list(a.terms)


# --------------------------------------------------------- property checks

cycle_types = st.dictionaries(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=4),
    max_size=5,
).map(CycleType)


@given(cycle_types)
def test_fix_counts_agree_with_brute_force(ct: CycleType):
    succ = explicit_permutation(ct)
    assert permutation_power_fixed_counts(succ, 12) == list(
        fix_count_sequence(ct, 12).terms
    )


@given(cycle_types)
def test_realize_round_trips_the_cycle_type(ct: CycleType):
    a = fix_count_sequence(ct, 18)
    assert realize_cycle_type(a, 18).counts == {
        length: count for length, count in ct.counts.items() if length <= 18
    }
