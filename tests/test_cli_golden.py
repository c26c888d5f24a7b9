"""Golden CLI bytes: exit code, stdout, stderr and the ``--out`` file.

Every case runs ``main(argv)`` in-process, in an empty directory that
holds only the input files below, so error messages name relative paths.
The expected results live in ``data/cli_golden.json``, one entry per case
id; they were recorded once and are never regenerated by the suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from realizable.cli import ENV_POINT_CAP, main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


def _bfile(terms):
    return "".join(f"{n} {t}\n" for n, t in enumerate(terms, start=1))


def _lucas(N):
    terms = [1, 3]
    while len(terms) < N:
        terms.append(terms[-1] + terms[-2])
    return terms[:N]


LUCAS40 = _bfile(_lucas(40))
FIB12 = _bfile([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
EQ_CYCLE10 = _bfile([1, 1, 1, 1, 6, 1, 1, 1, 1, 6])

INPUTS = {
    "lucas.b": LUCAS40,
    "fib.b": FIB12,
    "cycle.b": EQ_CYCLE10,
    "zeros.b": _bfile([0] * 8),
    "signed.b": "1 1\n2 -3\n3 4\n",
    "neg5.b": "1 1\n2 3\n3 4\n4 7\n5 -1\n",
    "dips.b": "1 2\n2 0\n3 2\n",
    "empty.b": "# no data lines\n\n",
    "offset0.b": "0 1\n1 1\n2 2\n",
    "malformed.b": "1 1\n2 three\n",
    "fields.b": "1 1 1\n",
    "order.b": "1 1\n3 2\n",
    "h.b": "1 5\n2 5\n3 1\n",
    "hbig.b": "1 1\n2 50\n",
    "hfar.b": "1 41\n",
}

# id -> (argv, stdin text or None)
CASES = {
    # gen: every family, --out, and the --terms check
    "gen-fiblike": (["gen", "fiblike", "3", "--terms", "40"], None),
    "gen-fiblike-out": (["gen", "fiblike", "1", "--terms", "12", "--out", "out.b"], None),
    "gen-linrec": (["gen", "linrec", "--coeffs", "1,1,1", "--init", "1,1,2", "--terms", "20"], None),
    "gen-linrec-bad-coeffs": (["gen", "linrec", "--coeffs", "1,x", "--init", "1,1", "--terms", "5"], None),
    "gen-stirling-1": (["gen", "stirling", "1", "3", "--terms", "15"], None),
    "gen-stirling-2": (["gen", "stirling", "2", "4", "--terms", "15"], None),
    "gen-euler": (["gen", "euler", "--terms", "12"], None),
    "gen-bernoulli-tau": (["gen", "bernoulli-tau", "--terms", "20"], None),
    "gen-bernoulli-beta": (["gen", "bernoulli-beta", "--terms", "20"], None),
    "gen-terms-0": (["gen", "fiblike", "3", "--terms", "0"], None),
    "gen-terms-0-out": (["gen", "fiblike", "3", "--terms", "0", "--out", "out.b"], None),
    # check: verdicts, --json, --terms, --out, and every kind of bad input
    "check-stdin-consistent": (["check"], LUCAS40),
    "check-stdin-fails": (["check", "-"], FIB12),
    "check-json-fails": (["check", "fib.b", "--json"], None),
    "check-json-consistent": (["check", "lucas.b", "--json", "--terms", "12"], None),
    "check-terms": (["check", "fib.b", "--terms", "2"], None),
    "check-out": (["check", "lucas.b", "--out", "out.txt"], None),
    "check-out-fails": (["check", "fib.b", "--json", "--out", "out.json"], None),
    "check-out-no-dir": (["check", "lucas.b", "--out", "nodir/out.txt"], None),
    "check-terms-0": (["check", "lucas.b", "--terms", "0"], None),
    "check-terms-past": (["check", "lucas.b", "--terms", "41"], None),
    "check-zeros": (["check", "zeros.b"], None),
    "check-sign-fails": (["check", "dips.b"], None),
    "check-signed": (["check", "signed.b"], None),
    "check-empty": (["check", "empty.b"], None),
    "check-offset0": (["check", "offset0.b"], None),
    "check-malformed": (["check", "malformed.b"], None),
    "check-fields": (["check", "fields.b"], None),
    "check-out-of-order": (["check", "order.b"], None),
    "check-missing": (["check", "nosuch.b"], None),
    "check-missing-out": (["check", "nosuch.b", "--out", "out.txt"], None),
    "check-malformed-terms-0": (["check", "malformed.b", "--terms", "0"], None),
    # orbits
    "orbits-text": (["orbits", "fib.b"], None),
    "orbits-json": (["orbits", "lucas.b", "--json", "--terms", "20"], None),
    "orbits-terms-0": (["orbits", "lucas.b", "--terms", "0"], None),
    "orbits-signed": (["orbits", "signed.b"], None),
    # local
    "local-prime-2": (["local", "cycle.b", "--prime", "2"], None),
    "local-prime-7": (["local", "cycle.b", "--prime", "7"], None),
    "local-prime-4": (["local", "cycle.b", "--prime", "4"], None),
    "local-all": (["local", "cycle.b", "--all"], None),
    "local-all-lucas": (["local", "lucas.b", "--all", "--terms", "20"], None),
    "local-all-json": (["local", "cycle.b", "--all", "--json"], None),
    "local-prime-json": (["local", "lucas.b", "--prime", "3", "--json", "--terms", "12"], None),
    "local-terms-past": (["local", "cycle.b", "--all", "--terms", "11"], None),
    # sample
    "sample-monomial": (["sample", "lucas.b", "--monomial", "2"], None),
    "sample-monomial-terms": (["sample", "--monomial", "2", "--terms", "3"], FIB12),
    "sample-monomial-past": (["sample", "--monomial", "2", "--terms", "4"], FIB12),
    "sample-monomial-0-terms-0": (["sample", "lucas.b", "--monomial", "0", "--terms", "0"], None),
    "sample-terms-0": (["sample", "lucas.b", "--monomial", "2", "--terms", "0"], None),
    "sample-table": (["sample", "lucas.b", "--table", "h.b"], None),
    "sample-table-too-short": (["sample", "lucas.b", "--table", "hfar.b"], None),
    "sample-table-terms-too-short": (["sample", "lucas.b", "--table", "hbig.b", "--terms", "2"], None),
    "sample-table-missing": (["sample", "lucas.b", "--table", "nosuch.b"], None),
    "sample-out": (["sample", "lucas.b", "--monomial", "3", "--out", "out.b"], None),
    # power
    "power": (["power", "lucas.b", "--poly", "1,1", "--terms", "6"], None),
    "power-negative-coefficient": (["power", "lucas.b", "--poly", "1,-1"], None),
    "power-malformed-poly": (["power", "lucas.b", "--poly", "1,a"], None),
    "power-terms-past": (["power", "lucas.b", "--poly", "2", "--terms", "41"], None),
    # scale
    "scale": (["scale", "--mult", "5"], LUCAS40),
    "scale-0": (["scale", "lucas.b", "--mult", "0"], None),
    "scale-negative": (["scale", "lucas.b", "--mult", "-2"], None),
    "scale-out": (["scale", "fib.b", "--mult", "3", "--out", "out.b"], None),
    # multiplier
    "multiplier-text": (["multiplier", "fib.b"], None),
    "multiplier-json": (["multiplier", "fib.b", "--json"], None),
    "multiplier-consistent": (["multiplier", "lucas.b"], None),
    "multiplier-zeros": (["multiplier", "zeros.b"], None),
    "multiplier-sign-fails": (["multiplier", "dips.b"], None),
    "multiplier-negative-past-terms": (["multiplier", "neg5.b", "--terms", "3"], None),
    "multiplier-terms-0": (["multiplier", "lucas.b", "--terms", "0"], None),
    # realize
    "realize": (["realize", "cycle.b"], None),
    "realize-lucas": (["realize", "lucas.b", "--terms", "10"], None),
    "realize-explicit": (["realize", "cycle.b", "--explicit"], None),
    "realize-explicit-cap-6": (["realize", "cycle.b", "--explicit", "6"], None),
    "realize-explicit-cap-5": (["realize", "cycle.b", "--explicit", "5", "--out", "out.json"], None),
    "realize-explicit-negative": (["realize", "cycle.b", "--explicit", "-5"], None),
    "realize-inconsistent": (["realize", "fib.b"], None),
    "realize-inconsistent-out": (["realize", "fib.b", "--out", "out.json"], None),
    "realize-out": (["realize", "cycle.b", "--out", "out.json"], None),
    # irregular
    "irregular": (["irregular", "--upto", "60"], None),
    "irregular-none": (["irregular", "--upto", "30"], None),
    "irregular-none-out": (["irregular", "--upto", "30", "--out", "out.txt"], None),
    "irregular-out": (["irregular", "--upto", "100", "--out", "out.txt"], None),
    # argparse usage errors
    "usage-no-command": ([], None),
    "usage-bad-int": (["check", "--terms", "zero"], None),
}


def run_case(argv, stdin):
    """Run one case in the current directory; return what the golden file holds."""
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="ascii")
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    return {
        "code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "out": out.read_text(encoding="ascii") if out and out.exists() else None,
    }


def test_golden_file_has_exactly_the_cases():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_bytes_match_the_golden_file(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_POINT_CAP, raising=False)
    argv, stdin = CASES[case]
    assert run_case(argv, stdin) == GOLDEN[case]
