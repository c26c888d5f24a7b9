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
from typing import Any

from .construct import CycleType
from .local import LocalReport
from .realizability import RealizabilityReport, _verdict
from .sequences import RatSeq, Seq
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


def parse_bfile(text: str, label: str = "") -> Seq:
    """Parse "n a_n" lines into a prefix; indices must run 1, 2, 3, ...

    Comment lines start with '#'; blank lines are ignored.  Terms may be
    signed (the checker itself rejects negatives; the file format does not).
    """
    terms: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(
                f"line {lineno}: expected 'n a_n', got {raw.strip()!r}"
            )
        try:
            n, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected two integers, got {raw.strip()!r}"
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


def format_bfile(a: Seq) -> str:
    """Render a prefix as canonical b-file text (data lines only)."""
    return "".join(f"{n} {t}\n" for n, t in enumerate(a.terms, start=1))


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
                "dold_value": str(r.dold_value),
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
        "orbit_counts": [str(b) for b in counts],
    }


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
                "p_part": [str(t) for t in r.p_part_sequence.terms],
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
        "value": str(mult.multiplier),
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
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
