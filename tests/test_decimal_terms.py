"""Integral Decimal terms: the b-file term parser, the report writer and
the kernels the command line runs on Decimals, each against the int path."""

import decimal
import json
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.construct import realize_cycle_type
from realizable.local import check_everywhere_local, support_primes
from realizable.realizability import check_realizable, divisibility_check, dold_transform, orbit_counts
from realizable.seqio import (
    _decimal_term,
    _doc_chunks,
    cycle_type_doc,
    dumps_doc,
    format_bfile,
    local_doc,
    multiplier_doc,
    orbit_counts_doc,
    parse_bfile,
    realizability_doc,
)
from realizable.sequences import (
    EXACT_CONTEXT,
    LinearRecurrence,
    Seq,
    fibonacci_like,
    linear_recurrence_terms,
)
from realizable.transforms import (
    IntPolynomial,
    Monomial,
    _checked_multiplier,
    minimal_multiplier,
    sample,
    scale,
    term_power,
)

from helpers import naive_dold


def decimals(terms):
    """The prefix with each term read as the b-file parser reads it."""
    return Seq(tuple(_decimal_term(str(t)) for t in terms))


def parse_both(text):
    """(int parse, Decimal parse) of a b-file text, or the ValueError
    message of each."""
    out = []
    for term in (int, _decimal_term):
        try:
            out.append(parse_bfile(text, _term=term).terms)
        except ValueError as err:
            out.append(f"ValueError: {err}")
    return out


# ------------------------------------------------------------ term parser

FIELD_CHARS = "0123456789+-_.eE NaInfity#\t²١٥ "


@given(
    st.one_of(
        st.text(alphabet=FIELD_CHARS, max_size=12),
        st.from_regex(r"[+-]?[0-9]{1,30}(_[0-9]{1,3})*", fullmatch=True),
        st.integers().map(str),
        st.text(max_size=8),
    )
)
def test_decimal_term_accepts_exactly_what_int_accepts(field):
    ints, decs = parse_both(f"1 {field}\n")
    if isinstance(ints, str):
        assert decs == ints  # the same refusal, word for word
    else:
        assert [str(t) for t in decs] == [str(t) for t in ints]


@pytest.mark.parametrize(
    "field, text",
    [("+5", "5"), ("007", "7"), ("1_000", "1000"), ("-0", "0"), ("-00", "0"), ("-12", "-12")],
)
def test_decimal_term_reads_like_int(field, text):
    assert str(_decimal_term(field)) == str(int(field)) == text


@pytest.mark.parametrize(
    "field", ["1e5", "1E5", "NaN", "sNaN", "Infinity", "-Inf", "1.0", ".5", "1.0e1", "²", "_1", "1_", "1__0", "+_5"]
)
def test_decimal_term_refuses_what_int_refuses(field):
    with pytest.raises(ValueError):
        int(field)
    message = f"line 1: expected two integers, got '1 {field}'"
    assert parse_both(f"1 {field}\n") == [f"ValueError: {message}"] * 2


def test_a_long_refused_line_is_quoted_in_part():
    # the Decimal path reads a_n with no digit limit, so the limit of int()
    # is named only for the int path
    field = "1." + "5" * 5000
    head = f"line 1: expected two integers, got '1 1.{'5' * 36}'... (a field of 5,001 digits"
    assert parse_both(f"1 {field}\n") == [
        f"ValueError: {head}; past CPython's 4,300-digit limit on int())",
        f"ValueError: {head})",
    ]
    three = f"line 1: expected 'n a_n', got '1 1 {'7' * 36}'... (a field of 5,000 digits)"
    assert parse_both(f"1 1 {'7' * 5000}\n") == [f"ValueError: {three}"] * 2


def test_decimal_term_refuses_an_empty_field():
    with pytest.raises(ValueError):
        _decimal_term("")


@given(
    st.one_of(
        st.integers(min_value=-(10**80), max_value=10**80),
        # powers of two and their neighbours, where the estimate from the
        # leading digits cannot decide
        st.tuples(st.integers(min_value=0, max_value=3000), st.integers(min_value=-1, max_value=1)).map(
            lambda p: 2 ** p[0] + p[1]
        ),
    )
)
def test_decimal_terms_report_the_bit_length_of_the_int(value):
    assert _decimal_term(str(value)).bit_length() == value.bit_length()
    assert _decimal_term(str(-value)).bit_length() == value.bit_length()


# --------------------------------------------------------- Seq admission


def test_seq_refuses_non_integral_decimals():
    for bad in ("1.5", "1E+5", "NaN", "Infinity"):
        with pytest.raises(TypeError):
            Seq((Decimal(bad),))


CONTEXTS = [
    decimal.Context(),  # prec 28; Inexact and Rounded not trapped
    decimal.Context(prec=5, traps=[]),  # nothing trapped
    decimal.Context(traps=[decimal.Inexact, decimal.Rounded]),  # prec 28
    EXACT_CONTEXT,
]


@pytest.mark.parametrize("context", CONTEXTS)
def test_100_digit_decimals_are_computed_exactly_in_any_context(context):
    # built in one context, computed on in another: each kernel enters
    # EXACT_CONTEXT itself, so nothing is rounded to the caller's precision
    ints = [10**99 * (n % 7 + 1) + n * n for n in range(1, 13)]
    a = decimals(ints)
    b = Seq(tuple(ints))
    with localcontext(context):
        assert check_realizable(a, 12) == check_realizable(b, 12)
        assert minimal_multiplier(a, 12) == minimal_multiplier(b, 12)
        assert [dold_transform(a, n) for n in range(1, 13)] == [dold_transform(b, n) for n in range(1, 13)]
        assert divisibility_check(a, 12) == divisibility_check(b, 12)
        assert scale(a, 7).terms == scale(b, 7).terms
        assert term_power(a, IntPolynomial((0, 1)), 5).terms == term_power(b, IntPolynomial((0, 1)), 5).terms
        rec = LinearRecurrence((1, 1), a.terms[:2])
        assert linear_recurrence_terms(rec, 40).terms == linear_recurrence_terms(
            LinearRecurrence((1, 1), b.terms[:2]), 40
        ).terms
        assert decimal.getcontext().prec == context.prec  # the caller's context is left as it was


def test_a_check_in_the_default_context_reports_the_exact_dold_value():
    # at prec 28, D_2 = 10**40 + 3 would round to an even 1.000...E+40
    with localcontext(EXACT_CONTEXT):
        a = Seq((Decimal(1), Decimal(10**40 + 4)))
    with localcontext(decimal.Context()):
        report = check_realizable(a, 2)
    assert report.verdict == "fails-D"
    assert realizability_doc(report)["records"][1]["dold_value"] == str(10**40 + 3)


# ---------------------------------------------------------------- kernels

prefixes = st.lists(
    st.one_of(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=10**60)),
    min_size=1,
    max_size=40,
)


@given(prefixes, st.data())
def test_checker_and_multiplier_agree_on_decimal_terms(terms, data):
    N = data.draw(st.integers(min_value=1, max_value=len(terms)))
    int_report, int_mult = _checked_multiplier(Seq(tuple(terms)), N)
    dec_report, dec_mult = _checked_multiplier(decimals(terms), N)
    assert dec_report == int_report and dec_mult == int_mult
    assert [r.dold_value for r in dec_report.records] == [naive_dold(terms, n) for n in range(1, N + 1)]
    assert all(isinstance(r.dold_mod_n, int) for r in dec_report.records)
    assert minimal_multiplier(decimals(terms), N) == int_mult


def test_int_calls_still_return_ints():
    report = check_realizable(fibonacci_like(1, 12), 12)
    assert all(type(r.dold_value) is int for r in report.records)
    assert type(minimal_multiplier(fibonacci_like(1, 12), 12).multiplier) is int
    assert all(type(t) is int for t in scale(fibonacci_like(3, 9), 5).terms)


def test_negative_dold_values_give_least_residues():
    # Decimal % truncates toward zero: D_2 = -4 and D_3 = -3 leave -0, D_2 = -7 leaves -1
    report = check_realizable(decimals([4, 0, 1]), 3)
    assert [(r.dold_value, r.dold_mod_n) for r in report.records] == [(4, 0), (-4, 0), (-3, 0)]
    report = check_realizable(decimals([8, 1, 2]), 3)
    assert [str(r.dold_value) for r in report.records] == ["8", "-7", "-6"]
    assert [r.dold_mod_n for r in report.records] == [0, 1, 0]
    assert "-0" not in dumps_doc(realizability_doc(report))


def test_recurrences_sample_and_scale_run_on_decimals():
    rec = LinearRecurrence((1, 1), (Decimal(1), Decimal(3)))
    assert linear_recurrence_terms(rec, 30).terms == fibonacci_like(3, 30).terms
    a = fibonacci_like(Decimal(3), 30)
    assert scale(sample(a, Monomial(2), 5), 5).terms == scale(sample(fibonacci_like(3, 30), Monomial(2), 5), 5).terms
    # a negative coefficient times a zero term is -0 in Decimal; it must print as 0
    zeros = linear_recurrence_terms(LinearRecurrence((-1, -1), (Decimal(0), Decimal(0))), 4)
    assert format_bfile(zeros) == "1 0\n2 0\n3 0\n4 0\n"


def test_term_power_keeps_zero_to_the_zero_on_decimals():
    assert term_power(decimals([0, 5, 0]), IntPolynomial((0,)), 3).terms == (1, 1, 1)
    assert term_power(decimals([0, 2]), IntPolynomial((0, 1)), 2).terms == (0, 4)


def test_support_primes_of_decimals_are_ints():
    primes = support_primes(decimals([1, 3, 4, 7]), 4)
    assert primes == [2, 3, 7] and all(type(p) is int for p in primes)


# ------------------------------------------------------------- writers


@given(st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1))
def test_bfile_of_decimals_equals_the_int_text(terms):
    assert format_bfile(decimals(terms)) == format_bfile(Seq(tuple(terms)))


def json_reference(doc):
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)


@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
def test_dumps_doc_equals_json_dumps(doc):
    assert dumps_doc(doc) == json_reference(doc)


def test_dumps_doc_equals_json_dumps_on_every_document_kind():
    a = Seq((1, 1, 1, 1, 6, 0, 1))
    docs = [
        orbit_counts_doc(orbit_counts(fibonacci_like(1, 8), 8)),
        local_doc(7, check_everywhere_local(fibonacci_like(3, 12), 7)),
        local_doc(5, []),
        cycle_type_doc(realize_cycle_type(Seq((1, 1, 1, 1, 6)), 5)),
        realizability_doc(check_realizable(a, 7)),
        {},
    ]
    for doc in docs:
        assert dumps_doc(doc) == json_reference(doc)


# id -> (terms, verdict)
STREAM_CASES = {
    "lucas": ([1, 3, 4, 7, 11, 18, 29, 47], "consistent-up-to-N"),
    "fibonacci": ([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144], "fails-D"),  # denominators 1, 1, 3, 2, 5, ...
    "sign": ([2, 0, 2], "fails-S"),  # D_2 = -2
    "both": ([3, 0, 3], "fails-both"),  # D_2 = -3, odd
    "N=1": ([5], "consistent-up-to-N"),
}


@pytest.mark.parametrize("case", STREAM_CASES)
@pytest.mark.parametrize("as_decimal", [False, True])
def test_streamed_documents_equal_json_dumps(case, as_decimal):
    terms, verdict = STREAM_CASES[case]
    a = decimals(terms) if as_decimal else Seq(tuple(terms))
    report, mult = _checked_multiplier(a, len(terms))
    assert report.verdict == verdict
    for doc in (realizability_doc(report), multiplier_doc(report, mult)):
        assert "".join(_doc_chunks(doc)) == dumps_doc(doc) == json_reference(doc)
    int_report, int_mult = _checked_multiplier(Seq(tuple(terms)), len(terms))
    assert dumps_doc(multiplier_doc(report, mult)) == dumps_doc(multiplier_doc(int_report, int_mult))
