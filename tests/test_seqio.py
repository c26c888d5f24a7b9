import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.construct import CycleType, fix_count_sequence
from realizable.local import check_everywhere_local, check_local
from realizable.realizability import check_realizable, orbit_counts
from realizable.seqio import (
    _decimal_term,
    cycle_type_doc,
    dumps_doc,
    format_bfile,
    local_doc,
    multiplier_doc,
    orbit_counts_doc,
    parse_bfile,
    realizability_doc,
)
from realizable.sequences import Seq, fibonacci_like
from realizable.transforms import _checked_multiplier, minimal_multiplier

# ---------------------------------------------------------------- b-files


def test_parse_plain_bfile():
    a = parse_bfile("1 1\n2 3\n3 4\n")
    assert a.terms == (1, 3, 4)


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\n1 5\n  # indented comment\n2 -7\n\n"
    assert parse_bfile(text).terms == (5, -7)


def test_parse_accepts_extra_whitespace():
    assert parse_bfile("1\t10\n2   20\n").terms == (10, 20)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_bfile("1 2 3\n")
    with pytest.raises(ValueError, match="two integers"):
        parse_bfile("1 x\n")
    with pytest.raises(ValueError, match="no sequence data"):
        parse_bfile("# nothing here\n")


def test_parse_rejects_noncontiguous_indices():
    with pytest.raises(ValueError, match="expected 1"):
        parse_bfile("2 5\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_bfile("1 1\n2 2\n4 4\n")
    with pytest.raises(ValueError, match="out of order"):
        parse_bfile("1 1\n1 1\n")


def test_format_is_byte_exact():
    assert format_bfile(Seq((1, 2, 3))) == "1 1\n2 2\n3 3\n"
    assert format_bfile(Seq((-5,))) == "1 -5\n"


@given(st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1))
def test_bfile_round_trip(terms):
    a = Seq(tuple(terms))
    assert parse_bfile(format_bfile(a)).terms == a.terms


# ------------------------------------------------------------- documents


def test_realizability_doc_shape():
    doc = realizability_doc(check_realizable(fibonacci_like(1, 5), 5))
    assert list(doc) == ["horizon", "verdict", "first_failure", "records"]
    assert doc["horizon"] == 5
    assert doc["verdict"] == "fails-D"
    assert doc["first_failure"] == {"n": 3, "condition": "D"}
    assert len(doc["records"]) == 5
    assert doc["records"][4] == {
        "n": 5,
        "dold_value": "4",
        "dold_mod_n": "4",
        "sign_ok": True,
        "divisibility_ok": False,
    }


def test_consistent_doc_has_null_failure():
    doc = realizability_doc(check_realizable(fibonacci_like(3, 5), 5))
    assert doc["verdict"] == "consistent-up-to-N"
    assert doc["first_failure"] is None


def test_orbit_counts_doc_uses_exact_strings():
    doc = orbit_counts_doc(orbit_counts(fibonacci_like(1, 5), 5))
    assert doc == {"horizon": 5, "orbit_counts": ["1", "0", "1/3", "1/2", "4/5"]}


def test_local_doc_aggregates_verdicts():
    a = fix_count_sequence(CycleType({1: 1, 5: 1}), 10)
    doc = local_doc(10, check_everywhere_local(a, 10))
    assert doc["verdict"] == "fails-D"
    assert [r["prime"] for r in doc["local_reports"]] == [2, 3]
    assert doc["local_reports"][0]["first_failure"] == {"n": 5, "condition": "D"}
    assert doc["local_reports"][0]["p_part"][4] == "2"

    good = local_doc(5, [check_local(Seq((2, 4, 8, 16, 32)), 2, 5)])
    assert good["verdict"] == "consistent-up-to-N"


def test_local_doc_aggregates_sign_and_mixed_failures():
    doc = local_doc(2, check_everywhere_local(Seq((3, 1)), 2))
    assert doc["verdict"] == "fails-S"
    assert [(r["prime"], r["verdict"]) for r in doc["local_reports"]] == [(3, "fails-S")]

    doc = local_doc(3, check_everywhere_local(Seq((2, 1, 3)), 3))
    assert doc["verdict"] == "fails-both"
    assert [(r["prime"], r["verdict"]) for r in doc["local_reports"]] == [
        (2, "fails-both"),
        (3, "fails-D"),
    ]


def test_multiplier_doc_extends_the_report():
    a = Seq((1, 1, 2, 3, 5))
    doc = multiplier_doc(check_realizable(a, 5), minimal_multiplier(a, 5))
    assert doc["multiplier"] == {
        "value": "30",
        "sign_ok": True,
        "denominators": ["1", "1", "3", "2", "5"],
    }


def test_cycle_type_doc_keeps_integer_counts():
    doc = cycle_type_doc(CycleType({5: 1, 1: 1}))
    assert doc == {"1": 1, "5": 1}
    assert all(isinstance(v, int) for v in doc.values())


def test_dumps_doc_is_canonical():
    text = dumps_doc({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'
    # loading and re-dumping reproduces the bytes
    assert dumps_doc(json.loads(text)) == text


def test_report_documents_survive_a_json_round_trip():
    for c in (1, 3):
        doc = realizability_doc(check_realizable(fibonacci_like(c, 12), 12))
        text = dumps_doc(doc)
        assert dumps_doc(json.loads(text)) == text


def test_huge_values_stay_exact_as_strings():
    big = 10**40 + 1
    # one aperiodic orbit of a huge length: D_1 = a_1 stays exact
    doc = realizability_doc(check_realizable(Seq((big,)), 1))
    assert doc["records"][0]["dold_value"] == str(big)
    assert json.loads(dumps_doc(doc))["records"][0]["dold_value"] == str(big)


# --------------------------------------- ints past CPython's digit limit

# every writer's int prefix holds a term of 5,001 digits, past the 4,300
# that str() writes for an int, and a 2-part of 6,021 digits
PAST_THE_LIMIT = Seq((1, 10**5000 + 1, 2**20000))


def read_doc(doc):
    """A document's canonical text, read back with its integers as text."""
    return json.loads(dumps_doc(doc), parse_int=str)


def test_format_bfile_writes_an_int_past_the_digit_limit():
    lines = format_bfile(PAST_THE_LIMIT).splitlines()
    assert [_decimal_term(line.split()[1]) for line in lines] == list(PAST_THE_LIMIT.terms)


def test_report_documents_write_ints_past_the_digit_limit():
    report, mult = _checked_multiplier(PAST_THE_LIMIT, 3)
    dold = [r.dold_value for r in report.records]
    for doc in (realizability_doc(report), multiplier_doc(report, mult)):
        assert [_decimal_term(r["dold_value"]) for r in read_doc(doc)["records"]] == dold
    assert _decimal_term(read_doc(doc)["multiplier"]["value"]) == mult.multiplier
    texts = read_doc(orbit_counts_doc(orbit_counts(PAST_THE_LIMIT, 3)))["orbit_counts"]
    for n, (text, D) in enumerate(zip(texts, dold), start=1):
        num, _, den = text.partition("/")
        assert Fraction(int(_decimal_term(num)), int(den or 1)) == Fraction(D, n)
    local = check_local(PAST_THE_LIMIT, 2, 3)
    (p_part,) = (r["p_part"] for r in read_doc(local_doc(3, [local]))["local_reports"])
    assert [_decimal_term(t) for t in p_part] == [1, 1, 2**20000]


def test_cycle_type_doc_writes_a_count_past_the_digit_limit():
    ct = CycleType({1: 1, 2: 10**5000 + 1})
    doc = read_doc(cycle_type_doc(ct))
    assert {int(k): _decimal_term(v) for k, v in doc.items()} == ct.counts
