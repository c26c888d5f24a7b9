"""Sequence files and JSON report documents.

The interchange format for prefixes is the OEIS b-file convention: one
"n a_n" pair per line, indices contiguous from 1, '#' starting a comment.
Report documents are JSON with a fixed field order; integers produced by
sequence arithmetic (Dold values, residues, multipliers, denominators,
p-parts, orbit counts) are decimal strings so nothing downstream silently
rounds them.  Serialization is canonical: parse + re-serialize is a byte
round trip.
"""

from __future__ import annotations

import json
import math
import sys
from decimal import Context, Decimal, InvalidOperation
from typing import Any, Callable, Iterator

from .construct import CycleType
from .local import LocalReport
from .realizability import DoldRecord, RealizabilityReport, _verdict
from .sequences import EXACT_CONTEXT, _QUOTED_DIGITS, RatSeq, Seq, _int_text
from .transforms import MultiplierReport

__all__ = [
    "parse_bfile",
    "format_bfile",
    "realizability_doc",
    "orbit_counts_doc",
    "local_doc",
    "multiplier_doc",
    "cycle_type_doc",
    "dumps_doc",
]

_LEADING_DIGITS = Context(prec=20)
_ENCODE = json.JSONEncoder(indent=2, ensure_ascii=True).encode
# a dict of scalars as an item of a list field, at that item's indent (no
# indent argument, so json's C encoder runs)
_ENCODE_FLAT_ITEM = json.JSONEncoder(
    separators=(",\n      ", ": "), ensure_ascii=True
).encode


def parse_bfile(
    text: str, label: str = "", *, _term: Callable[[str], Any] = int
) -> Seq:
    """Parse "n a_n" lines into a prefix; indices must run 1, 2, 3, ...

    Comment lines start with '#'; blank lines are ignored.  Terms may be
    signed (the checker itself rejects negatives; the file format does not).
    ``_term`` reads each a_n: int, or _decimal_term.
    """
    terms: list = []
    for lineno, raw in enumerate(lines := text.splitlines(), start=1):
        lines[lineno - 1] = None  # freed once read: a line and its term never coexist
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(
                f"line {lineno}: expected 'n a_n', got {_shown(raw.strip(), [])}"
            )
        try:
            n, value = int(fields[0]), _term(fields[1])
        except ValueError:
            int_fields = fields if _term is int else fields[:1]
            raise ValueError(
                f"line {lineno}: expected two integers, got "
                f"{_shown(raw.strip(), int_fields)}"
            ) from None
        if n != len(terms) + 1:
            raise ValueError(
                f"line {lineno}: index {n} out of order (expected {len(terms) + 1}); "
                "indices must be contiguous from 1"
            )
        terms.append(value)
    if not terms:
        raise ValueError("no sequence data found")
    return Seq(tuple(terms), label=label)


def _shown(line: str, int_fields: list[str]) -> str:
    """The refused line, quoted; past _QUOTED_DIGITS characters only its
    start, with the digit count of its longest field and, when int() reads
    that field and it passes CPython's digit limit on int(), that limit."""
    if len(line) <= _QUOTED_DIGITS:
        return repr(line)
    field = max(line.split(), key=len)
    digits = sum(map(str.isdigit, field))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    past = field in int_fields and 0 < limit < digits
    cause = f"; past CPython's {limit:,}-digit limit on int()" if past else ""
    return f"{line[:_QUOTED_DIGITS]!r}... (a field of {digits:,} digits{cause})"


def _decimal_term(field: str) -> Decimal:
    """Decimal(field) for exactly the fields int() accepts; -0 reads as 0.

    Decimal also reads exponents, points, NaN and infinities, and takes
    underscores anywhere; those fields raise ValueError, as int() does.
    """
    try:
        value = _Term(field)
    except InvalidOperation:
        raise ValueError(f"not an integer: {field!r}") from None
    if not value.is_finite() or "." in field or "e" in field or "E" in field:
        raise ValueError(f"not an integer: {field!r}")
    if "_" in field and not all(map(str.isdecimal, field.lstrip("+-").split("_"))):
        raise ValueError(f"misplaced underscore: {field!r}")
    return value or _Term(0)


class _Term(Decimal):
    """An integral Decimal read from a b-file.  Like an int it answers
    bit_length(), so code that sizes a prefix's terms (perfbench's tracer
    records the largest term's bits) reads either type.  Arithmetic on it
    gives plain Decimals."""

    __slots__ = ()

    def bit_length(self) -> int:
        if not self:
            return 0
        # log2|t| from the exponent and the leading digits; near a power of
        # two, where that cannot decide, count exactly
        k = self.adjusted()
        lead = float(_LEADING_DIGITS.scaleb(self.copy_abs(), -k))
        log2 = k * math.log2(10) + math.log2(lead)
        floor = math.floor(log2)
        if min(log2 - floor, floor + 1 - log2) < 1e-6:
            return int(self).bit_length()
        return floor + 1


def format_bfile(a: Seq) -> str:
    """Render a prefix as canonical b-file text (data lines only)."""
    return "".join(f"{n} {_int_text(t)}\n" for n, t in enumerate(a.terms, start=1))


def _first_failure_field(report: RealizabilityReport) -> dict[str, Any] | None:
    if report.first_failure is None:
        return None
    n, condition = report.first_failure
    return {"n": n, "condition": condition}


def realizability_doc(report: RealizabilityReport) -> dict[str, Any]:
    """Report document for a horizon check: fixed field order, exact values."""
    return {
        "horizon": report.horizon,
        "verdict": report.verdict,
        "first_failure": _first_failure_field(report),
        "records": [
            {
                "n": r.n,
                "dold_value": _int_text(r.dold_value),
                "dold_mod_n": str(r.dold_mod_n),
                "sign_ok": r.sign_ok,
                "divisibility_ok": r.divisibility_ok,
            }
            for r in report.records
        ],
    }


def orbit_counts_doc(counts: RatSeq) -> dict[str, Any]:
    """Orbit counts as exact strings ("7" or "75024/5")."""
    return {
        "horizon": len(counts),
        "orbit_counts": [_count_text(b.numerator, b.denominator) for b in counts],
    }


def _orbit_count_text(r: DoldRecord) -> str:
    """str(Fraction(D_n, n)), as (D_n // g)/(n // g), g = gcd(D_n mod n, n)."""
    g = math.gcd(r.dold_mod_n, r.n)
    count = EXACT_CONTEXT.divide_int(r.dold_value, g) if g > 1 else r.dold_value
    return _count_text(count, r.n // g)


def _count_text(num: int | Decimal, den: int) -> str:
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{den}"


def local_doc(horizon: int, reports: list[LocalReport]) -> dict[str, Any]:
    """Combined document for per-prime localization checks.

    The top-level verdict aggregates: consistent only when every listed
    prime is.  Primes outside the listed support are trivially consistent
    (all-ones p-part) and get no entry.
    """
    return {
        "horizon": horizon,
        "verdict": _verdict([rec for r in reports for rec in r.report.records]),
        "first_failure": None,
        "records": [],
        "local_reports": [
            {
                "prime": r.prime,
                "p_part": [_int_text(t) for t in r.p_part_sequence.terms],
                "verdict": r.report.verdict,
                "first_failure": _first_failure_field(r.report),
            }
            for r in reports
        ],
    }


def multiplier_doc(
    report: RealizabilityReport, mult: MultiplierReport
) -> dict[str, Any]:
    """Horizon check document extended with the multiplier analysis."""
    doc = realizability_doc(report)
    doc["multiplier"] = {
        "value": _int_text(mult.multiplier),
        "sign_ok": mult.sign_ok,
        "denominators": [str(d) for d in mult.denominators],
    }
    return doc


def cycle_type_doc(ct: CycleType) -> dict[str, Any]:
    """Cycle type as {"length": count}, lengths ascending.

    Counts stay JSON integers (arbitrary precision survives a Python
    round trip) to match the documented output shape exactly.
    """
    return {str(length): count for length, count in ct.counts.items()}


def dumps_doc(doc: dict[str, Any]) -> str:
    """Canonical JSON bytes: 2-space indent, fixed key order, one trailing
    newline.  json.loads followed by dumps_doc reproduces the bytes."""
    return "".join(_doc_chunks(doc))


def _doc_chunks(doc: dict[str, Any]) -> Iterator[str]:
    """dumps_doc(doc) in chunks, which is json.dumps(doc, indent=2,
    ensure_ascii=True) + "\\n": one chunk per field, and one per item of a
    list field whose items are all non-empty dicts of scalars (the records).
    Json's C encoder, which runs only without an indent argument, renders
    each such item at its indent in one call."""
    if not doc:
        yield "{}\n"
        return
    opener = "{"
    for key, value in doc.items():
        yield f"{opener}\n  {_ENCODE(key)}: "
        opener = ","
        if value and isinstance(value, list) and all(map(_is_flat, value)):
            sep = "["
            for item in value:
                yield f"{sep}\n    {{\n      {_ENCODE_FLAT_ITEM(item)[1:-1]}\n    }}"
                sep = ","
            yield "\n  ]"
        elif isinstance(value, Decimal) or type(value) is int:
            yield _int_text(value)
        else:
            yield _ENCODE(value).replace("\n", "\n  ")
    yield "\n}\n"


def _is_flat(item: Any) -> bool:
    """A non-empty dict of JSON scalars."""
    return (
        isinstance(item, dict)
        and bool(item)
        and not any(isinstance(v, (dict, list, tuple)) for v in item.values())
    )
