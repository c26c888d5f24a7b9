import re
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.construct import CycleType, fix_count_sequence
from realizable.sequences import (
    FIBONACCI,
    InsufficientPrefixError,
    LinearRecurrence,
    RatSeq,
    Seq,
    _quoted,
    _refuse_below,
    bernoulli_numbers,
    euler_abs_sequence,
    fibonacci_like,
    fibonacci_term,
    irregular_primes,
    linear_recurrence_term,
    linear_recurrence_terms,
    stirling_first,
    stirling_row_sequence,
    stirling_second,
    tau_beta_sequences,
)
from realizable.transforms import IntPolynomial, Monomial, required_source_length, sample

from helpers import (
    bernoulli_by_series,
    falling_factorial,
    sech_series_coefficients,
    stirling1_by_enumeration,
    stirling2_by_enumeration,
)

# ------------------------------------------------------------ containers


def test_seq_is_one_indexed():
    a = Seq((10, 20, 30))
    assert a[1] == 10 and a[3] == 30
    assert len(a) == 3
    assert list(a) == [10, 20, 30]


def test_seq_rejects_index_below_one():
    a = Seq((1, 2))
    with pytest.raises(IndexError):
        a[0]
    with pytest.raises(IndexError):
        a[-1]


def test_seq_reports_required_length_past_prefix():
    a = Seq((1, 2, 3))
    with pytest.raises(InsufficientPrefixError) as err:
        a[7]
    assert err.value.required == 7
    assert isinstance(err.value, ValueError)


def test_seq_validates_terms():
    with pytest.raises(ValueError):
        Seq(())
    with pytest.raises(TypeError):
        Seq((1, 2.5))


def test_seq_coerces_any_iterable_of_ints():
    assert Seq([3, 1, 4]).terms == (3, 1, 4)


def test_ratseq_holds_fractions():
    b = RatSeq((Fraction(1), Fraction(3, 2)))
    assert b[2] == Fraction(3, 2)
    with pytest.raises(InsufficientPrefixError):
        b[3]
    with pytest.raises(IndexError):
        b[0]


# ------------------------------------------------------ linear recurrences


def test_recurrence_validation():
    with pytest.raises(ValueError):
        LinearRecurrence((), ())
    with pytest.raises(ValueError):
        LinearRecurrence((1, 0), (1, 1))  # trailing coefficient zero
    with pytest.raises(ValueError):
        LinearRecurrence((1, 1), (1,))  # wrong number of initial terms
    assert LinearRecurrence((1, 1), (1, 1)).order == 2


@pytest.mark.parametrize(
    "coefficient, shown",
    [(Decimal(1), "Decimal 1"), (1.0, "float 1.0"), (Decimal(10**50), "Decimal a 51-digit number")],
)
def test_both_kernels_are_refused_a_coefficient_that_is_not_an_int(coefficient, shown):
    # linear_recurrence_term would fail in its squaring loop, and
    # linear_recurrence_terms would yield terms Seq refuses: the recurrence
    # that both would run is refused when it is built
    with pytest.raises(TypeError, match=f"^{re.escape(f'coefficients are ints, got {shown}')}$"):
        LinearRecurrence((1, coefficient), (1, 1))
    rec = LinearRecurrence((1, 1), (Decimal(1), Decimal(1)))  # Decimal initial terms stay
    assert linear_recurrence_term(rec, 500) == linear_recurrence_terms(rec, 500)[500] == fibonacci_term(500)


def test_fibonacci_prefix():
    a = linear_recurrence_terms(FIBONACCI, 10)
    assert a.terms == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_fibonacci_term_known_values():
    assert fibonacci_term(1) == 1
    assert fibonacci_term(10) == 55
    assert fibonacci_term(50) == 12586269025
    assert fibonacci_term(100) == 354224848179261915075


def test_single_term_matches_iterated_prefix_for_fibonacci():
    a = linear_recurrence_terms(FIBONACCI, 60)
    for m in range(1, 61):
        assert linear_recurrence_term(FIBONACCI, m) == a[m]


def _recurrences(k: int) -> st.SearchStrategy[LinearRecurrence]:
    coefficient = st.integers(min_value=-3, max_value=3)
    return st.builds(
        LinearRecurrence,
        st.tuples(*[coefficient] * (k - 1), coefficient.filter(lambda c: c != 0)),
        st.tuples(*[st.integers(min_value=-5, max_value=5)] * k),
    )


@given(
    st.integers(min_value=1, max_value=4).flatmap(_recurrences),
    st.integers(min_value=1, max_value=300),
)
def test_isolated_term_matches_iteration(rec: LinearRecurrence, m: int):
    prefix = linear_recurrence_terms(rec, 300)
    edges = set(range(1, rec.order + 2))  # m <= k and m = k + 1
    edges |= {2**j + e for j in range(1, 9) for e in (-1, 1)}
    for index in sorted(edges | {m}):
        assert linear_recurrence_term(rec, index) == prefix[index], index


def test_isolated_terms_at_large_indices():
    # identities the kernel does not use: doubling F_2n = F_n (2 F_(n+1) - F_n)
    # with F_n, F_(n+1) iterated, and Cassini F_(m-1) F_(m+1) - F_m^2 = (-1)^m
    n = 5003
    fib = linear_recurrence_terms(FIBONACCI, n + 1)
    assert fibonacci_term(2 * n) == fib[n] * (2 * fib[n + 1] - fib[n])
    m = 10**5 + 1
    assert (
        fibonacci_term(m - 1) * fibonacci_term(m + 1) - fibonacci_term(m) ** 2 == -1
    )
    tribonacci = LinearRecurrence((1, 1, 1), (1, 1, 2))
    m = 2**14 + 1
    assert linear_recurrence_term(tribonacci, m) == linear_recurrence_terms(
        tribonacci, m
    )[m]


def test_fibonacci_like_families():
    assert fibonacci_like(1, 6).terms == (1, 1, 2, 3, 5, 8)
    assert fibonacci_like(3, 10).terms == (1, 3, 4, 7, 11, 18, 29, 47, 76, 123)
    assert fibonacci_like(4, 5).terms == (1, 4, 5, 9, 14)
    assert fibonacci_like(0, 1) == Seq((1,), label="fiblike(0)")
    assert fibonacci_like(-2, 4).terms == (1, -2, -1, -3)
    with pytest.raises(ValueError):
        fibonacci_like(1, 0)


# --------------------------------------------------------------- stirling


def test_stirling_first_matches_enumeration():
    for n in range(1, 8):
        for k in range(0, n + 1):
            assert stirling_first(n, k) == stirling1_by_enumeration(n, k), (n, k)


def test_stirling_second_matches_enumeration():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert stirling_second(n, k) == stirling2_by_enumeration(n, k), (n, k)


def test_stirling_first_rows_sum_to_factorials():
    for n in range(1, 31):
        assert sum(stirling_first(n, k) for k in range(n + 1)) == factorial(n)


def test_stirling_second_inverts_falling_factorials():
    # x^n recovered from the second-kind expansion in falling factorials
    for n in range(1, 9):
        for x in range(1, 7):
            total = sum(
                stirling_second(n, k) * falling_factorial(x, k)
                for k in range(1, n + 1)
            )
            assert total == x**n, (n, x)


def test_stirling_bounds_enforced():
    with pytest.raises(ValueError):
        stirling_first(3, 4)
    with pytest.raises(ValueError):
        stirling_second(3, 0)
    with pytest.raises(ValueError):
        stirling_first(0, 0)


def test_stirling_row_sequence_is_a_diagonal():
    a = stirling_row_sequence(2, 4, 6)
    assert a.terms == tuple(stirling_second(n + 3, 4) for n in range(1, 7))
    assert a.terms == (1, 10, 65, 350, 1701, 7770)
    b = stirling_row_sequence(1, 3, 5)
    assert b.terms == tuple(stirling_first(n + 2, 3) for n in range(1, 6))
    with pytest.raises(ValueError):
        stirling_row_sequence(3, 1, 5)
    with pytest.raises(ValueError):
        stirling_row_sequence(2, 0, 5)


# --------------------------------------------------- euler and bernoulli


def test_euler_matches_series_reciprocal():
    # coefficient of t^{2n} in sech(t), scaled by (2n)!, up to sign
    sech = sech_series_coefficients(120)
    want = tuple(abs(sech[2 * n] * factorial(2 * n)) for n in range(1, 61))
    assert euler_abs_sequence(60).terms == want


def test_euler_known_values():
    assert euler_abs_sequence(5).terms == (1, 5, 61, 1385, 50521)


def test_bernoulli_matches_series_reciprocal():
    for M in (0, 1, 2, 3, 120):
        assert bernoulli_numbers(M) == bernoulli_by_series(M), M


def test_bernoulli_known_values():
    B = bernoulli_numbers(16)
    assert B[0] == 1
    assert B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6)
    assert B[12] == Fraction(-691, 2730)
    assert B[16] == Fraction(-3617, 510)
    assert all(B[m] == 0 for m in range(3, 17, 2))


def test_bernoulli_von_staudt_clausen():
    # B_{2n} plus the sum of 1/p over primes with (p-1) | 2n is an integer
    from realizable.numtheory import primes_upto

    B = bernoulli_numbers(60)
    for m in range(2, 61, 2):
        shifted = B[m] + sum(
            Fraction(1, p) for p in primes_upto(m + 1) if m % (p - 1) == 0
        )
        assert shifted.denominator == 1, m


def test_tau_beta_reduced_pairs():
    tau, beta = tau_beta_sequences(30)
    assert (tau[1], beta[1]) == (1, 12)
    assert (tau[2], beta[2]) == (1, 120)
    assert (tau[6], beta[6]) == (691, 32760)
    assert (tau[8], beta[8]) == (3617, 8160)
    from math import gcd

    for n in range(1, 31):
        assert gcd(tau[n], beta[n]) == 1
        # the pair reassembles |B_{2n} / 2n| exactly
        B = bernoulli_numbers(2 * n)
        assert Fraction(tau[n], beta[n]) == abs(B[2 * n]) / (2 * n)


def test_irregular_primes_tables():
    assert irregular_primes(36) == []
    assert irregular_primes(60) == [37, 59]
    assert irregular_primes(110) == [37, 59, 67, 101, 103]
    # OEIS A000928 up to 600
    assert irregular_primes(600) == [
        37, 59, 67, 101, 103, 131, 149, 157, 233, 257, 263, 271, 283, 293, 307,
        311, 347, 353, 379, 389, 401, 409, 421, 433, 461, 463, 467, 491, 523,
        541, 547, 557, 577, 587, 593,
    ]
    with pytest.raises(ValueError):
        irregular_primes(4)


def test_small_primes_are_regular():
    assert all(p not in irregular_primes(36) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31))


# ------------------------------------------------------ refusals' quotes


@pytest.mark.parametrize("kind", [int, Decimal])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_refusal_quotes_40_digits_and_names_41_by_their_count(kind, sign):
    forty, forty_one = kind(sign * (10**40 - 1)), kind(sign * 10**40)
    assert _quoted(forty) == str(sign * (10**40 - 1))
    assert _quoted(forty, "terms") == f"{sign * (10**40 - 1)} terms"
    negative = "negative " if sign < 0 else ""
    assert _quoted(forty_one) == f"a {negative}41-digit number"
    assert _quoted(forty_one, "terms") == f"a {negative}41-digit number of terms"


def test_a_quote_sizes_a_huge_term_without_writing_it():
    assert _quoted(Decimal(f"-{'7' * 10**6}")) == "a negative 1,000,000-digit number"
    assert _quoted(-(10**5000)) == "a negative 5,001-digit number"


@pytest.mark.parametrize(
    "refused",
    [
        lambda: CycleType({1: -(10**5000)}),
        lambda: CycleType({-(10**5000): 1}),
        lambda: IntPolynomial((1, -(10**5000))),
    ],
    ids=["cycle-count", "cycle-length", "coefficient"],
)
def test_a_refused_huge_value_is_named_by_its_digit_count(refused):
    with pytest.raises(ValueError, match="a negative 5,001-digit number$") as err:
        refused()
    assert len(str(err.value).encode()) < 200


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fix_count_sequence(CycleType({1: 1}), 0), "need N >= 1"),
        (lambda: RatSeq(()), "a sequence prefix needs at least one term"),
        (lambda: linear_recurrence_term(FIBONACCI, 0), "need m >= 1"),
        (lambda: stirling_second(0, 1), "need n >= 1"),
        (lambda: stirling_row_sequence(2, 1, 0), "need N >= 1"),
        (lambda: euler_abs_sequence(0), "need N >= 1"),
        (lambda: bernoulli_numbers(-1), "need M >= 0"),
        (lambda: tau_beta_sequences(0), "need N >= 1"),
        (lambda: required_source_length(Monomial(2), 0), "need N >= 1"),
        (lambda: sample(Seq((1,)), Monomial(2), 0), "need N >= 1"),
    ],
    ids=[
        "fix_count_sequence",
        "RatSeq",
        "linear_recurrence_term",
        "stirling_second",
        "stirling_row_sequence",
        "euler_abs_sequence",
        "bernoulli_numbers",
        "tau_beta_sequences",
        "required_source_length",
        "sample",
    ],
)
def test_an_empty_horizon_or_index_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_sign_scan_keeps_its_range_and_quotes_the_term():
    a = Seq((1, 2, -(10**5000)))
    _refuse_below(a, 1, "a_{n} = {t}", 2)  # a_3 lies past the horizon
    with pytest.raises(ValueError, match=r"^a_3 = a negative 5,001-digit number$"):
        _refuse_below(a, 1, "a_{n} = {t}")
    with pytest.raises(ValueError, match=r"^a_1 = 1$"):
        _refuse_below(a, 2, "a_{n} = {t}")
    with pytest.raises(InsufficientPrefixError):
        _refuse_below(a, 0, "a_{n} = {t}", 4)
