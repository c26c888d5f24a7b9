import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.construct import CycleType, fix_count_sequence
from realizable.realizability import check_realizable, dold_transform
from realizable.sequences import (
    InsufficientPrefixError,
    Seq,
    fibonacci_like,
    fibonacci_term,
)
from realizable.transforms import (
    LUCA_WARD_PARAMETER_SETS,
    ExplicitTable,
    IntPolynomial,
    Monomial,
    _fit,
    denominator_prime_scan,
    luca_ward_check,
    minimal_multiplier,
    required_source_length,
    sample,
    scale,
    term_power,
    time_change_value,
)

from helpers import naive_sample_fit

FIB = fibonacci_like(1, 120)
LUCAS = fibonacci_like(3, 120)


# ----------------------------------------------------------- time changes


def test_time_change_validation():
    with pytest.raises(ValueError):
        Monomial(0)
    with pytest.raises(ValueError):
        ExplicitTable(())
    with pytest.raises(ValueError):
        ExplicitTable((1, 0, 3))  # table values are indices, so >= 1


def test_time_change_values():
    assert time_change_value(Monomial(2), 5) == 25
    assert time_change_value(ExplicitTable((2, 4, 6)), 2) == 4
    with pytest.raises(ValueError):
        time_change_value(Monomial(1), 0)
    with pytest.raises(ValueError):
        time_change_value(ExplicitTable((2, 4)), 3)


def test_required_source_length():
    assert required_source_length(Monomial(2), 5) == 25
    assert required_source_length(ExplicitTable((3, 9, 2)), 3) == 9


def test_int_polynomial():
    h = IntPolynomial((1, 0, 1))  # 1 + n^2
    assert [h(n) for n in (1, 2, 3)] == [2, 5, 10]
    assert IntPolynomial((7,))(100) == 7
    with pytest.raises(ValueError):
        IntPolynomial(())
    with pytest.raises(ValueError):
        IntPolynomial((1, -1))


# --------------------------------------------------------------- sampling


def test_sample_squares_of_fibonacci():
    assert sample(FIB, Monomial(2), 3).terms == (1, 3, 34)


def test_sample_reports_needed_length():
    with pytest.raises(InsufficientPrefixError) as err:
        sample(Seq((1, 1, 2)), Monomial(2), 4)
    assert err.value.required == 16


def test_sample_names_a_huge_length_without_building_it():
    with pytest.raises(InsufficientPrefixError, match=r"length 3\^100000000, but only 3 terms") as err:
        sample(Seq((1, 1, 2)), Monomial(10**8), 3)
    assert err.value.required is None
    start = time.perf_counter()
    with pytest.raises(InsufficientPrefixError, match=r"length 1000000\^700, but only 3 terms") as err:
        sample(Seq((1, 1, 2)), Monomial(700), 10**6)
    assert err.value.required == 10**4200
    assert time.perf_counter() - start < 1


def test_sample_writes_a_length_past_40_digits_as_a_power():
    with pytest.raises(InsufficientPrefixError, match=r"length 10{39}, but") as err:
        sample(Seq((1, 1, 2)), Monomial(39), 10)
    assert err.value.required == 10**39
    with pytest.raises(InsufficientPrefixError, match=r"length 10\^40, but") as err:
        sample(Seq((1, 1, 2)), Monomial(40), 10)
    assert err.value.required == 10**40


def test_fit_matches_a_scan_for_monomials():
    for k in range(1, 14):
        for have in range(1, 1200):
            assert _fit(Monomial(k), have) == naive_sample_fit(k, have), (k, have)
    for have in (1, 2, 3, 2**64 - 1, 2**64, 10**50, 10**50 + 1, 3**200):
        bits = have.bit_length()
        for k in {1, 2, 3, 7, bits - 1, bits, bits + 5} - {0}:
            N = _fit(Monomial(k), have)
            assert N**k <= have < (N + 1) ** k, (k, have)
        assert _fit(Monomial(10**9), have) == 1


@given(st.lists(st.integers(1, 40), min_size=1, max_size=12), st.integers(1, 40))
def test_fit_matches_a_scan_for_tables(values, have):
    assert _fit(ExplicitTable(values), have) == naive_sample_fit(tuple(values), have)


@given(
    st.one_of(
        st.builds(Monomial, st.integers(1, 6)),
        st.builds(ExplicitTable, st.lists(st.integers(1, 40), min_size=1, max_size=12)),
    ),
    st.integers(1, 40),
    st.integers(1, 14),
)
def test_sample_refuses_exactly_past_the_scanned_fit(h, have, N):
    a = Seq(tuple(range(1, have + 1)))
    if N <= naive_sample_fit(h.k if isinstance(h, Monomial) else h.values, have):
        assert sample(a, h, N).terms == tuple(time_change_value(h, n) for n in range(1, N + 1))
    elif isinstance(h, ExplicitTable) and N > len(h.values):
        with pytest.raises(ValueError, match="explicit table has"):
            sample(a, h, N)
    else:
        with pytest.raises(InsufficientPrefixError) as err:
            sample(a, h, N)
        assert err.value.required == required_source_length(h, N)


def test_sample_with_table():
    a = Seq((10, 20, 30, 40))
    assert sample(a, ExplicitTable((4, 4, 1)), 3).terms == (40, 40, 10)


def test_sample_agrees_with_direct_term_computation():
    # the sampled prefix from a materialized source matches single-term
    # evaluation at the same indices
    long_fib = fibonacci_like(1, 260)
    sampled = sample(long_fib, Monomial(2), 16)
    for n in range(1, 17):
        assert sampled[n] == fibonacci_term(n * n)


def test_monomial_sampling_preserves_consistency():
    for k in (1, 2, 3):
        sampled = sample(LUCAS, Monomial(k), 4)
        assert check_realizable(sampled, 4).consistent, k


# ------------------------------------------------------------ term powers


def test_term_power_values():
    assert term_power(Seq((2, 3)), IntPolynomial((0, 1)), 2).terms == (2, 9)
    assert term_power(Seq((2, 3)), IntPolynomial((2,)), 2).terms == (4, 9)


def test_term_power_zero_to_the_zero_is_one():
    assert term_power(Seq((0, 5)), IntPolynomial((0,)), 2).terms == (1, 1)


def test_term_power_rejects_negative_bases():
    with pytest.raises(ValueError):
        term_power(Seq((1, -2)), IntPolynomial((0, 1)), 2)


def test_term_power_preserves_consistency():
    powered = term_power(LUCAS, IntPolynomial((1, 1)), 10)
    assert check_realizable(powered, 10).consistent


# ------------------------------------------------ scaling and multipliers


def test_scale_values_and_validation():
    assert scale(Seq((1, 2, 3)), 4).terms == (4, 8, 12)
    with pytest.raises(ValueError):
        scale(Seq((1,)), 0)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=15),
    st.integers(min_value=1, max_value=20),
)
def test_dold_transform_is_linear_in_scaling(terms, C):
    a = Seq(tuple(terms))
    b = Seq(tuple(C * t for t in terms))
    for n in range(1, len(terms) + 1):
        assert dold_transform(b, n) == C * dold_transform(a, n)


def test_minimal_multiplier_of_a_consistent_prefix_is_one():
    m = minimal_multiplier(LUCAS, 30)
    assert m.multiplier == 1
    assert m.sign_ok
    assert m.denominators == (1,) * 30


def test_minimal_multiplier_fibonacci_squares():
    sq = sample(fibonacci_like(1, 900), Monomial(2), 30)
    m = minimal_multiplier(sq, 30)
    assert (m.multiplier, m.sign_ok) == (5, True)
    assert check_realizable(scale(sq, 5), 30).consistent
    # no proper divisor of the multiplier works
    assert not check_realizable(scale(sq, 1), 30).consistent


def test_minimal_multiplier_fibonacci_fourth_powers():
    q = Seq(tuple(fibonacci_term(n**4) for n in range(1, 13)))
    m = minimal_multiplier(q, 12)
    assert m.multiplier == 5
    assert m.sign_ok
    assert m.denominators == (1, 1, 1, 1, 5, 1, 1, 1, 1, 5, 1, 1)


def test_minimal_multiplier_rejects_negative_terms():
    with pytest.raises(ValueError):
        minimal_multiplier(Seq((1, -1)), 2)


positive_prefixes = st.lists(
    st.integers(min_value=0, max_value=40), min_size=1, max_size=12
)


@given(positive_prefixes)
def test_scaling_by_the_multiplier_clears_every_denominator(terms):
    a = Seq(tuple(terms))
    N = len(terms)
    m = minimal_multiplier(a, N)
    scaled = scale(a, m.multiplier)
    for n in range(1, N + 1):
        assert dold_transform(scaled, n) % n == 0


def test_denominator_prime_scan_fibonacci():
    assert denominator_prime_scan(fibonacci_like(1, 10), 10) == {2, 3, 5, 7}
    assert denominator_prime_scan(LUCAS, 30) == set()


# ------------------------------------------- non-monomial counterexamples


def _poly_sample(a: Seq, h: IntPolynomial, N: int) -> Seq:
    return sample(a, ExplicitTable(tuple(h(n) for n in range(1, N + 1))), N)


def test_polynomial_time_changes_break_realizability():
    # fixed counterexample: the 6-point permutation with one 5-cycle
    base = fix_count_sequence(CycleType({1: 1, 5: 1}), 60)
    cases = {
        (1, 1): (4, "D"),  # h(n) = n + 1
        (1, 0, 1): (2, "D"),  # h(n) = n^2 + 1
        (0, 1, 1): (4, "D"),  # h(n) = n^2 + n
    }
    for coeffs, first in cases.items():
        report = check_realizable(_poly_sample(base, IntPolynomial(coeffs), 7), 7)
        assert not report.consistent, coeffs
        assert report.first_failure == first, coeffs


def test_every_nonconstant_shift_has_a_small_witness():
    # for each h(n) = n^k + 1 there is a <= 6 point permutation whose fixed
    # counts stop being realizable after sampling; found by full search
    from itertools import product

    for k in (1, 2):
        h = IntPolynomial((1,) + (0,) * (k - 1) + (1,))
        found = False
        for c1, c2, c5 in product(range(3), range(3), range(2)):
            ct = CycleType({1: c1, 2: c2, 5: c5})
            base = fix_count_sequence(ct, 60)
            report = check_realizable(_poly_sample(base, h, 7), 7)
            if not report.consistent:
                found = True
                break
        assert found, k


# ----------------------------------------- scaled power-sampled recurrences


def test_parameter_table_entries():
    fib, trib = LUCA_WARD_PARAMETER_SETS
    assert fib.name == "fibonacci"
    assert fib.congruence_multiplier == 5
    assert fib.admissible_exponents(8) == [2, 4, 6, 8]
    assert trib.name == "tribonacci"
    assert trib.congruence_multiplier == 21296
    assert trib.admissible_exponents(18) == [6, 12, 18]


def test_fibonacci_congruence_at_the_advertised_parameters():
    fib = LUCA_WARD_PARAMETER_SETS[0]
    assert luca_ward_check(fib.recurrence, 5, 2, 20).consistent
    assert luca_ward_check(fib.recurrence, 5, 4, 12).consistent


def test_fibonacci_congruence_needs_the_multiplier():
    fib = LUCA_WARD_PARAMETER_SETS[0]
    report = luca_ward_check(fib.recurrence, 1, 2, 20)
    assert report.verdict == "fails-D"
    assert report.first_failure == (5, "D")
    assert [r.n for r in report.records if not r.divisibility_ok] == [5, 10, 15, 20]


def test_tribonacci_congruence_at_the_advertised_parameters():
    trib = LUCA_WARD_PARAMETER_SETS[1]
    report = luca_ward_check(trib.recurrence, trib.congruence_multiplier, 6, 12)
    assert all(r.divisibility_ok for r in report.records)
    assert report.consistent


def test_tribonacci_congruence_needs_an_admissible_exponent():
    trib = LUCA_WARD_PARAMETER_SETS[1]
    for s, first in ((1, 3), (2, 3), (3, 7)):
        report = luca_ward_check(trib.recurrence, trib.congruence_multiplier, s, 8)
        assert report.verdict == "fails-D", s
        assert report.first_failure == (first, "D"), s


def test_luca_ward_matches_the_materialized_pipeline():
    fib = LUCA_WARD_PARAMETER_SETS[0]
    direct = luca_ward_check(fib.recurrence, 5, 2, 12)
    pipeline = check_realizable(
        scale(sample(fibonacci_like(1, 144), Monomial(2), 12), 5), 12
    )
    assert direct.records == pipeline.records
    assert direct.verdict == pipeline.verdict


def test_luca_ward_validation():
    fib = LUCA_WARD_PARAMETER_SETS[0]
    with pytest.raises(ValueError):
        luca_ward_check(fib.recurrence, 0, 2, 5)
    with pytest.raises(ValueError):
        luca_ward_check(fib.recurrence, 5, 0, 5)
    with pytest.raises(ValueError):
        luca_ward_check(fib.recurrence, 5, 2, 0)
