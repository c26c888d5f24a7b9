import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.construct import CycleType, fix_count_sequence
from realizable.local import (
    check_everywhere_local,
    check_local,
    p_part,
    support_primes,
)
from realizable.sequences import InsufficientPrefixError, Seq, fibonacci_like

# fixed-point counts of the permutation (1 2 3 4 5)(6): the showcase for
# a sequence that passes globally yet fails at single primes
EQ_CYCLE = fix_count_sequence(CycleType({1: 1, 5: 1}), 30)


def test_p_part_extracts_prime_powers():
    a = Seq((6, 12, 18))
    assert p_part(a, 2).terms == (2, 4, 2)
    assert p_part(a, 3).terms == (3, 3, 9)
    assert p_part(a, 5).terms == (1, 1, 1)


def test_p_part_requires_a_prime():
    with pytest.raises(ValueError):
        p_part(Seq((1, 2)), 4)


def test_p_part_rejects_zero_terms_with_its_own_message():
    with pytest.raises(ValueError, match="no p-part"):
        p_part(Seq((1, 0)), 2)
    with pytest.raises(ValueError):
        p_part(Seq((1, -2)), 2)


def test_support_primes():
    assert support_primes(EQ_CYCLE, 30) == [2, 3]
    assert support_primes(Seq((1, 1, 1)), 3) == []
    assert support_primes(Seq((4, 9, 10)), 3) == [2, 3, 5]
    # horizon matters: the 10 only enters at N=3
    assert support_primes(Seq((4, 9, 10)), 2) == [2, 3]


def test_support_primes_past_the_prefix_names_the_horizon():
    with pytest.raises(InsufficientPrefixError) as err:
        support_primes(Seq((2, 3, 4)), 6)
    assert err.value.required == 6


def test_eq_cycle_fails_locally_at_two_and_three():
    for p in (2, 3):
        report = check_local(EQ_CYCLE, p, 30)
        assert report.prime == p
        assert not report.consistent
        assert report.report.first_failure == (5, "D")
    # every other prime has all-ones p-part, trivially fine
    assert check_local(EQ_CYCLE, 5, 30).consistent
    assert check_local(EQ_CYCLE, 7, 30).consistent


def test_eq_cycle_local_p_parts():
    # the report carries the p-part of the whole input prefix
    rep2 = check_local(EQ_CYCLE, 2, 10)
    assert rep2.p_part_sequence.terms[:10] == (1, 1, 1, 1, 2, 1, 1, 1, 1, 2)
    assert len(rep2.p_part_sequence) == len(EQ_CYCLE)
    rep3 = check_local(EQ_CYCLE, 3, 10)
    assert rep3.p_part_sequence.terms[:10] == (1, 1, 1, 1, 3, 1, 1, 1, 1, 3)


def test_everywhere_local_scan_covers_exactly_the_support():
    reports = check_everywhere_local(EQ_CYCLE, 30)
    assert [r.prime for r in reports] == [2, 3]
    assert all(not r.consistent for r in reports)


def test_everywhere_local_passes_for_doubling_sequence():
    a = Seq(tuple(2**n for n in range(1, 13)))
    reports = check_everywhere_local(a, 12)
    assert [r.prime for r in reports] == [2]
    assert reports[0].consistent


def test_lucas_two_part_fails():
    # global consistency does not transfer to the 2-part: its Dold value
    # at n=6 is 2 - 4 - 1 + 1 = -2, breaking sign and divisibility at once
    lucas = fibonacci_like(3, 10)
    report = check_local(lucas, 2, 10)
    assert p_part(lucas, 2).terms == (1, 1, 4, 1, 1, 2, 1, 1, 4, 1)
    assert report.report.first_failure == (6, "both")


@given(
    st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=12)
)
def test_p_parts_multiply_back_to_the_terms(terms):
    a = Seq(tuple(terms))
    N = len(terms)
    primes = support_primes(a, N)
    for n in range(1, N + 1):
        prod = 1
        for p in primes:
            prod *= p_part(a, p)[n]
        assert prod == a[n]
