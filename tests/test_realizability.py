from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.realizability import (
    VERDICT_CONSISTENT,
    VERDICT_FAILS_BOTH,
    VERDICT_FAILS_D,
    VERDICT_FAILS_S,
    check_realizable,
    divisibility_check,
    dold_transform,
    orbit_counts,
)
from realizable.sequences import InsufficientPrefixError, Seq, fibonacci_like
from realizable.transforms import minimal_multiplier

from helpers import naive_dold

LUCAS = fibonacci_like(3, 30)
FIB = fibonacci_like(1, 30)


# --------------------------------------------------------- dold transform

prefixes = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=24)


@given(prefixes, st.data())
def test_dold_transform_matches_definition(terms, data):
    n = data.draw(st.integers(min_value=1, max_value=len(terms)))
    assert dold_transform(Seq(tuple(terms)), n) == naive_dold(terms, n)


@given(prefixes)
def test_dold_inverts_back_to_the_sequence(terms):
    # summing the transform over divisors recovers a_n (Moebius inversion)
    from realizable.numtheory import divisors

    a = Seq(tuple(terms))
    for n in range(1, len(terms) + 1):
        assert sum(dold_transform(a, d) for d in divisors(n)) == a[n]


def test_dold_known_fibonacci_values():
    assert [dold_transform(FIB, n) for n in range(1, 11)] == [
        1, 0, 1, 2, 4, 6, 12, 18, 32, 50,
    ]


def test_dold_validates_input():
    a = Seq((1, 2, 3))
    with pytest.raises(ValueError):
        dold_transform(a, 0)
    with pytest.raises(InsufficientPrefixError):
        dold_transform(a, 4)


# --------------------------------------------- the Dold table, all views

signed_terms = st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=80)
counts_terms = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=80)


@given(counts_terms, st.data())
def test_check_realizable_records_match_the_definition(terms, data):
    N = data.draw(st.integers(min_value=1, max_value=len(terms)))
    report = check_realizable(Seq(tuple(terms)), N)
    assert [r.n for r in report.records] == list(range(1, N + 1))
    assert [r.dold_value for r in report.records] == [
        naive_dold(terms, n) for n in range(1, N + 1)
    ]


@given(signed_terms, st.data())
def test_orbit_counts_match_the_definition_on_signed_terms(terms, data):
    N = data.draw(st.integers(min_value=1, max_value=len(terms)))
    assert list(orbit_counts(Seq(tuple(terms)), N)) == [
        Fraction(naive_dold(terms, n), n) for n in range(1, N + 1)
    ]


@given(counts_terms, st.data())
def test_multiplier_denominators_match_the_definition(terms, data):
    N = data.draw(st.integers(min_value=1, max_value=len(terms)))
    report = minimal_multiplier(Seq(tuple(terms)), N)
    assert list(report.denominators) == [
        Fraction(naive_dold(terms, n), n).denominator for n in range(1, N + 1)
    ]
    assert report.sign_ok == all(naive_dold(terms, n) >= 0 for n in range(1, N + 1))


def test_dold_table_matches_the_single_index_form_on_a_long_prefix():
    lucas = fibonacci_like(3, 2000)
    report = check_realizable(lucas, 2000)
    for n, record in enumerate(report.records, start=1):
        assert record.dold_value == dold_transform(lucas, n), n
    assert report.consistent


# ----------------------------------------------------------- orbit counts


def test_orbit_counts_lucas_are_integral():
    b = orbit_counts(LUCAS, 10)
    assert b.terms == (
        Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(2),
        Fraction(2), Fraction(4), Fraction(5), Fraction(8), Fraction(11),
    )


def test_orbit_counts_fibonacci_show_the_obstruction():
    b = orbit_counts(FIB, 5)
    assert b.terms == (
        Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5),
    )


def test_orbit_counts_of_the_doubling_sequence_count_necklaces():
    # a_n = 2^n counts the period-n points of the full shift on two symbols,
    # so b_n must equal the number of aperiodic binary necklaces
    from helpers import binary_lyndon_counts

    a = Seq(tuple(2**n for n in range(1, 11)))
    assert list(orbit_counts(a, 10)) == binary_lyndon_counts(10)
    assert check_realizable(a, 10).consistent


# -------------------------------------------------------- horizon checks


def test_lucas_is_consistent():
    report = check_realizable(LUCAS, 30)
    assert report.verdict == VERDICT_CONSISTENT
    assert report.consistent
    assert report.first_failure is None
    assert all(r.ok for r in report.records)
    assert len(report.records) == 30


def test_fibonacci_fails_divisibility_first_at_three():
    report = check_realizable(FIB, 10)
    assert report.verdict == VERDICT_FAILS_D
    assert not report.consistent
    assert report.first_failure == (3, "D")
    assert [r.n for r in report.records if not r.divisibility_ok] == [3, 4, 5, 7, 8, 9]
    r5 = report.records[4]
    assert (r5.dold_value, r5.dold_mod_n, r5.sign_ok, r5.divisibility_ok) == (
        4, 4, True, False,
    )


def test_pure_sign_failure():
    report = check_realizable(Seq((3, 1)), 2)
    assert report.verdict == VERDICT_FAILS_S
    assert report.first_failure == (2, "S")


def test_both_conditions_fail_at_one_index():
    report = check_realizable(Seq((2, 1)), 2)
    assert report.verdict == VERDICT_FAILS_BOTH
    assert report.first_failure == (2, "both")


def test_both_conditions_fail_at_different_indices():
    # (D) breaks at n=2 while staying positive; (S) breaks at n=3
    report = check_realizable(Seq((4, 9, 1)), 3)
    assert report.verdict == VERDICT_FAILS_BOTH
    assert report.first_failure == (2, "D")
    flags = [(r.sign_ok, r.divisibility_ok) for r in report.records]
    assert flags == [(True, True), (True, False), (False, True)]


def test_check_rejects_negative_terms():
    with pytest.raises(ValueError):
        check_realizable(Seq((1, -1)), 2)


def test_check_validates_horizon():
    with pytest.raises(ValueError):
        check_realizable(LUCAS, 0)
    with pytest.raises(InsufficientPrefixError) as err:
        check_realizable(fibonacci_like(3, 5), 9)
    assert err.value.required == 9


# --------------------------------------------------- divisibility check


def test_lucas_is_not_a_divisibility_sequence():
    result = divisibility_check(LUCAS, 10)
    assert not result.ok
    assert result.first_failure == (2, 4)  # a_2 = 3 does not divide a_4 = 7


def test_fibonacci_is_a_divisibility_sequence():
    assert divisibility_check(FIB, 30) == (True, None)


def test_doubling_sequence_divides_itself():
    assert divisibility_check(Seq((2, 4, 8, 16, 32, 64)), 6).ok


def test_divisibility_check_rejects_zero_terms():
    with pytest.raises(ValueError):
        divisibility_check(Seq((1, 0, 1)), 3)
