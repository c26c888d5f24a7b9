import argparse
import decimal
import io
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import realizable
from realizable import cli, realizability, seqio
from realizable.cli import main
from realizable.seqio import dumps_doc, parse_bfile
from realizable.sequences import EXACT_CONTEXT, fibonacci_like

from helpers import assert_bounded_refusal, naive_dold, naive_sample_fit

LUCAS10 = "1 1\n2 3\n3 4\n4 7\n5 11\n6 18\n7 29\n8 47\n9 76\n10 123\n"
FIB10 = "1 1\n2 1\n3 2\n4 3\n5 5\n6 8\n7 13\n8 21\n9 34\n10 55\n"
FIB5 = "1 1\n2 1\n3 2\n4 3\n5 5\n"
EQ_CYCLE10 = "1 1\n2 1\n3 1\n4 1\n5 6\n6 1\n7 1\n8 1\n9 1\n10 6\n"


def run_cli(argv, capsys, monkeypatch, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -------------------------------------------------------------------- gen


def test_gen_fiblike_is_byte_exact(capsys, monkeypatch):
    code, out, err = run_cli(["gen", "fiblike", "3", "--terms", "10"], capsys, monkeypatch)
    assert (code, out, err) == (0, LUCAS10, "")


def test_gen_linrec(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["gen", "linrec", "--coeffs", "1,1,1", "--init", "1,1,2", "--terms", "7"],
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert out == "1 1\n2 1\n3 2\n4 4\n5 7\n6 13\n7 24\n"


def test_gen_stirling(capsys, monkeypatch):
    code, out, _ = run_cli(["gen", "stirling", "2", "4", "--terms", "4"], capsys, monkeypatch)
    assert code == 0
    assert out == "1 1\n2 10\n3 65\n4 350\n"


def test_gen_euler(capsys, monkeypatch):
    code, out, _ = run_cli(["gen", "euler", "--terms", "5"], capsys, monkeypatch)
    assert code == 0
    assert out == "1 1\n2 5\n3 61\n4 1385\n5 50521\n"


def test_gen_bernoulli_pair(capsys, monkeypatch):
    code, tau, _ = run_cli(["gen", "bernoulli-tau", "--terms", "8"], capsys, monkeypatch)
    assert code == 0
    assert tau == "1 1\n2 1\n3 1\n4 1\n5 1\n6 691\n7 1\n8 3617\n"
    code, beta, _ = run_cli(["gen", "bernoulli-beta", "--terms", "8"], capsys, monkeypatch)
    assert code == 0
    assert beta == "1 12\n2 120\n3 252\n4 240\n5 132\n6 32760\n7 12\n8 8160\n"


def test_gen_rejects_bad_terms(capsys, monkeypatch):
    code, _, err = run_cli(["gen", "fiblike", "3", "--terms", "0"], capsys, monkeypatch)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv", [["sample", "--monomial", "2", "--terms", "0"], ["check", "--terms", "0"]]
)
def test_terms_below_one_is_a_usage_error(argv, capsys, monkeypatch):
    code, _, err = run_cli(argv, capsys, monkeypatch, stdin_text=LUCAS10)
    assert (code, err) == (2, "error: --terms must be >= 1\n")


# ------------------------------------------------------------------ check


def test_check_consistent_exits_zero(capsys, monkeypatch):
    code, out, _ = run_cli(["check"], capsys, monkeypatch, stdin_text=LUCAS10)
    assert code == 0
    assert "consistent up to N=10" in out
    assert "never prove" in out


def test_check_counterexample_exits_one(capsys, monkeypatch):
    code, out, _ = run_cli(["check"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 1
    assert "fails (D) at n=3" in out
    assert "Dold value 1, residue 1 mod 3" in out
    assert "verdict: fails-D" in out


def test_check_json_document(capsys, monkeypatch):
    code, out, _ = run_cli(["check", "--json"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fails-D"
    assert doc["first_failure"] == {"n": 3, "condition": "D"}
    assert dumps_doc(doc) == out  # canonical bytes round trip


def test_check_horizon_flag(capsys, monkeypatch):
    # fibonacci passes when the horizon stops before n=3
    code, _, _ = run_cli(["check", "--terms", "2"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 0
    code, _, err = run_cli(["check", "--terms", "99"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 2
    assert "99" in err


def test_check_reads_files_and_writes_out(tmp_path, capsys, monkeypatch):
    src = tmp_path / "lucas.txt"
    src.write_text(LUCAS10, encoding="ascii")
    dst = tmp_path / "verdict.txt"
    code, out, _ = run_cli(
        ["check", str(src), "--out", str(dst)], capsys, monkeypatch
    )
    assert code == 0
    assert out == ""
    assert "consistent up to N=10" in dst.read_text(encoding="ascii")


def test_check_rejects_bad_bfile(capsys, monkeypatch):
    code, _, err = run_cli(["check"], capsys, monkeypatch, stdin_text="2 5\n")
    assert code == 2
    assert err.startswith("error:")


# ----------------------------------------------------------------- orbits


def test_orbits_text_output(capsys, monkeypatch):
    code, out, _ = run_cli(["orbits"], capsys, monkeypatch, stdin_text=FIB5)
    assert code == 1  # fractional counts signal a counterexample
    assert out == "1 1\n2 0\n3 1/3\n4 1/2\n5 4/5\n"


def test_orbits_of_realizable_input(capsys, monkeypatch):
    code, out, _ = run_cli(["orbits"], capsys, monkeypatch, stdin_text=LUCAS10)
    assert code == 0
    assert out.splitlines()[:5] == ["1 1", "2 1", "3 1", "4 1", "5 2"]


def test_orbits_json(capsys, monkeypatch):
    code, out, _ = run_cli(["orbits", "--json"], capsys, monkeypatch, stdin_text=LUCAS10)
    assert code == 0
    assert json.loads(out)["orbit_counts"][:5] == ["1", "1", "1", "1", "2"]


# ------------------------------------------------------------------ local


def test_local_single_prime(capsys, monkeypatch):
    code, out, _ = run_cli(["local", "--prime", "2"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 1
    assert out == "p=2: fails (D) at n=5\n"


def test_local_all_support_primes(capsys, monkeypatch):
    code, out, _ = run_cli(["local", "--all"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 1
    assert "p=2: fails (D) at n=5" in out
    assert "p=3: fails (D) at n=5" in out
    assert "support primes: 2 3" in out


def test_local_json(capsys, monkeypatch):
    code, out, _ = run_cli(["local", "--all", "--json"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fails-D"
    assert [r["prime"] for r in doc["local_reports"]] == [2, 3]


def test_local_consistent_prime_exits_zero(capsys, monkeypatch):
    code, out, _ = run_cli(["local", "--prime", "7"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 0
    assert "p=7: consistent up to N=10" in out


def test_local_rejects_composite_prime(capsys, monkeypatch):
    code, _, err = run_cli(["local", "--prime", "4"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 2
    assert "not prime" in err


def test_local_all_past_the_prefix_names_the_horizon(capsys, monkeypatch):
    code, out, err = run_cli(
        ["local", "--all", "--terms", "99"], capsys, monkeypatch, stdin_text=EQ_CYCLE10
    )
    assert (code, out) == (2, "")
    assert "99" in err


def test_local_requires_a_mode(capsys, monkeypatch):
    code, _, _ = run_cli(["local"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 2


# ------------------------------------------------- sample, power, scale


def test_sample_monomial_explicit_horizon(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["sample", "--monomial", "2", "--terms", "3"], capsys, monkeypatch, stdin_text=FIB10
    )
    assert code == 0
    assert out == "1 1\n2 3\n3 34\n"


def test_sample_monomial_default_horizon(capsys, monkeypatch):
    # with 10 source terms, squares fit up to n=3
    code, out, _ = run_cli(["sample", "--monomial", "2"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 0
    assert out == "1 1\n2 3\n3 34\n"


def test_sample_table(tmp_path, capsys, monkeypatch):
    table = tmp_path / "h.txt"
    table.write_text("1 5\n2 5\n3 1\n", encoding="ascii")
    code, out, _ = run_cli(
        ["sample", "--table", str(table)], capsys, monkeypatch, stdin_text=FIB10
    )
    assert code == 0
    assert out == "1 5\n2 5\n3 1\n"


def test_sample_overflow_is_a_data_error(capsys, monkeypatch):
    code, _, err = run_cli(
        ["sample", "--monomial", "2", "--terms", "4"], capsys, monkeypatch, stdin_text=FIB10
    )
    assert code == 2
    assert "16" in err


def test_power(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["power", "--poly", "1,1"], capsys, monkeypatch, stdin_text="1 2\n2 3\n3 4\n"
    )
    assert code == 0
    assert out == "1 4\n2 27\n3 256\n"


def test_power_rejects_negative_coefficients(capsys, monkeypatch):
    code, _, err = run_cli(
        ["power", "--poly", "1,-1"], capsys, monkeypatch, stdin_text="1 2\n"
    )
    assert code == 2
    assert err.startswith("error:")


def test_scale(capsys, monkeypatch):
    code, out, _ = run_cli(["scale", "--mult", "5"], capsys, monkeypatch, stdin_text="1 1\n2 2\n")
    assert code == 0
    assert out == "1 5\n2 10\n"


def test_pipeline_composes_like_the_library(capsys, monkeypatch):
    # gen | sample | scale | check, all in process, against the direct path
    code, fib900, _ = run_cli(["gen", "fiblike", "1", "--terms", "900"], capsys, monkeypatch)
    assert code == 0
    code, squares, _ = run_cli(
        ["sample", "--monomial", "2", "--terms", "30"], capsys, monkeypatch, stdin_text=fib900
    )
    assert code == 0
    code, scaled, _ = run_cli(["scale", "--mult", "5"], capsys, monkeypatch, stdin_text=squares)
    assert code == 0
    code, verdict, _ = run_cli(["check"], capsys, monkeypatch, stdin_text=scaled)
    assert code == 0
    assert "consistent up to N=30" in verdict

    from realizable.transforms import Monomial, sample, scale as scale_fn

    direct = scale_fn(sample(fibonacci_like(1, 900), Monomial(2), 30), 5)
    assert parse_bfile(scaled).terms == direct.terms


# ------------------------------------------------------------- multiplier


def test_multiplier_reports_the_constant(tmp_path, capsys, monkeypatch):
    s24 = tmp_path / "s24.txt"
    code, _, _ = run_cli(
        ["gen", "stirling", "2", "4", "--terms", "50", "--out", str(s24)], capsys, monkeypatch
    )
    assert code == 0
    code, out, _ = run_cli(["multiplier", str(s24)], capsys, monkeypatch)
    assert code == 1  # a multiplier above 1 is a counterexample signal
    assert "minimal multiplier for condition (D) up to N=50: 6" in out
    assert "sign condition (S) holds: yes" in out


def test_multiplier_of_consistent_input_exits_zero(capsys, monkeypatch):
    code, out, _ = run_cli(["multiplier"], capsys, monkeypatch, stdin_text=LUCAS10)
    assert code == 0
    assert "N=10: 1\n" in out


def test_multiplier_json(capsys, monkeypatch):
    code, out, _ = run_cli(["multiplier", "--json"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 1
    doc = json.loads(out)
    assert doc["multiplier"]["value"] == "1260"  # lcm of 3, 2, 5, 7, 4, 9
    assert doc["multiplier"]["sign_ok"] is True


def test_multiplier_json_computes_the_dold_table_once(capsys, monkeypatch):
    kernel = realizability._dold_values
    calls = []

    def counting(a, N):
        calls.append(N)
        return kernel(a, N)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("realizable") and hasattr(module, "_dold_values"):
            monkeypatch.setattr(module, "_dold_values", counting)
    code, _, _ = run_cli(["multiplier", "--json"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 1
    assert calls == [10]


# ---------------------------------------------------------------- realize


def test_realize_emits_the_cycle_type(capsys, monkeypatch):
    code, out, _ = run_cli(["realize"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 0
    assert json.loads(out) == {"1": 1, "5": 1}
    assert out == dumps_doc({"1": 1, "5": 1})


def test_realize_explicit_permutation(capsys, monkeypatch):
    code, out, _ = run_cli(["realize", "--explicit"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 0
    doc = json.loads(out)
    assert doc["cycle_type"] == {"1": 1, "5": 1}
    assert doc["permutation"] == [1, 3, 4, 5, 6, 2]


def test_realize_refuses_inconsistent_input(capsys, monkeypatch):
    code, out, err = run_cli(["realize"], capsys, monkeypatch, stdin_text=FIB10)
    assert code == 1
    assert out == ""
    assert err.startswith("not realizable:")


def test_realize_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("REALIZE_POINT_CAP", "3")
    code, _, err = run_cli(["realize", "--explicit"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 2
    assert "6" in err  # total point count named in the refusal
    # an explicit cap on the flag wins over the environment
    code, out, _ = run_cli(["realize", "--explicit", "6"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 0
    assert json.loads(out)["permutation"] == [1, 3, 4, 5, 6, 2]


def test_realize_rejects_negative_cap(capsys, monkeypatch):
    code, _, err = run_cli(["realize", "--explicit", "-5"], capsys, monkeypatch, stdin_text=EQ_CYCLE10)
    assert code == 2
    assert err.startswith("error:")


# -------------------------------------------------------------- irregular


def test_irregular_prints_one_line(capsys, monkeypatch):
    code, out, _ = run_cli(["irregular", "--upto", "60"], capsys, monkeypatch)
    assert (code, out) == (0, "37 59\n")


def test_irregular_empty_range_prints_nothing(capsys, monkeypatch):
    code, out, _ = run_cli(["irregular", "--upto", "30"], capsys, monkeypatch)
    assert (code, out) == (0, "")


# ------------------------------------------------------------ entry points


def test_usage_errors_exit_two(capsys, monkeypatch):
    assert run_cli([], capsys, monkeypatch)[0] == 2
    assert run_cli(["no-such-command"], capsys, monkeypatch)[0] == 2
    assert run_cli(["check", "--terms", "zero"], capsys, monkeypatch)[0] == 2
    assert run_cli(["gen", "fiblike", "3"], capsys, monkeypatch)[0] == 2


@pytest.mark.parametrize(
    "error, code, err",
    [
        # exit 1 would read as "counterexample found": running out of memory
        # is a refusal, never a verdict
        (MemoryError, 2, "error: out of memory\n"),
        (BrokenPipeError, 0, ""),
    ],
)
def test_main_maps_errors_from_inside_a_subcommand(error, code, err, capsys, monkeypatch):
    def fail(c, N):
        raise error

    monkeypatch.setattr(cli, "fibonacci_like", fail)
    argv = ["gen", "fiblike", "3", "--terms", "10"]
    assert run_cli(argv, capsys, monkeypatch) == (code, "", err)


def test_module_entry_point_runs_in_a_subprocess():
    # the child imports the same package this process did, installed or not
    src = os.path.dirname(os.path.dirname(realizable.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "realizable", "irregular", "--upto", "60"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "37 59\n"


def test_missing_input_file_is_a_data_error(capsys, monkeypatch):
    code, _, err = run_cli(["check", "/no/such/file"], capsys, monkeypatch)
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------- input and limits

ARABIC_ONE = "1 \u0661\n2 3\n"  # an Arabic-Indic digit one, which int() accepts


@pytest.mark.parametrize("command", ["check", "orbits"])  # Decimal and int terms
def test_non_ascii_input_is_refused_from_a_path_and_from_stdin(command, tmp_path, capsys, monkeypatch):
    path = tmp_path / "arabic.b"
    path.write_text(ARABIC_ONE, encoding="utf-8")
    from_path = run_cli([command, str(path)], capsys, monkeypatch)
    from_stdin = run_cli([command], capsys, monkeypatch, stdin_text=ARABIC_ONE)
    refusal = (2, "", "error: line 1: b-file input is ASCII, got '1 \\u0661'\n")
    assert from_stdin == refusal
    assert from_path == (2, "", "error: line 1: b-file input is ASCII, got '1 \\udcd9\\udca1'\n")


@pytest.mark.parametrize("data", [ARABIC_ONE.encode("utf-8"), b"1 1\n2 \xe9\n"])
def test_non_ascii_bytes_on_stdin_are_refused_like_a_file(data, tmp_path):
    # the child reads its real stdin, so the bytes are decoded as ASCII, not with the locale codec
    src = os.path.dirname(os.path.dirname(realizable.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LANG": "C.UTF-8", "LC_ALL": "C.UTF-8"}
    path = tmp_path / "in.b"
    path.write_bytes(data)
    results = [
        subprocess.run(
            [sys.executable, "-m", "realizable", "check", *argv],
            input=data,
            capture_output=True,
            timeout=60,
            env=env,
        )
        for argv in ([], [str(path)])
    ]
    line = 1 if data.startswith(b"1 \xd9") else 2
    for proc in results:
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: line {line}: b-file input is ASCII".encode())
    assert results[0].stderr == results[1].stderr


# one value per command is checked mod these primes: its terms pass CPython's
# 4,300-digit int<->str limit
PRIMES = (10**9 + 7, 998244353, 2**61 - 1)


def residues(text):
    """A decimal integer's text mod each of PRIMES, read through Decimal."""
    with decimal.localcontext(EXACT_CONTEXT):
        return [int(Decimal(text) % p) for p in PRIMES]


@pytest.fixture(scope="module")
def lucas_21000(tmp_path_factory):
    """The b-file of L_1..L_21000, whose last terms pass 4,300 digits (from
    n = 20,576), and the terms as ints."""
    path = tmp_path_factory.mktemp("lucas") / "l.b"
    assert main(["gen", "fiblike", "3", "--terms", "21000", "--out", str(path)]) == 0
    return path, fibonacci_like(3, 21000).terms


def test_the_decimal_paths_have_no_digit_limit(lucas_21000, capsys, monkeypatch):
    path, lucas = lucas_21000
    last = path.read_text().splitlines()[-1].split()
    assert last[0] == "21000" and len(last[1]) > 4300
    assert residues(last[1]) == [lucas[-1] % p for p in PRIMES]
    code, out, _ = run_cli(["check", str(path)], capsys, monkeypatch)
    assert (code, out.split(" (")[0]) == (0, "consistent up to N=21000")
    code, sampled, _ = run_cli(["sample", str(path), "--monomial", "2"], capsys, monkeypatch)
    assert code == 0 and sampled.count("\n") == 144  # 144^2 <= 21000 < 145^2
    code, scaled, _ = run_cli(["scale", "--mult", "5"], capsys, monkeypatch, stdin_text=sampled)
    assert code == 0
    with decimal.localcontext(EXACT_CONTEXT):
        assert scaled.splitlines()[-1] == f"144 {5 * Decimal(sampled.split()[-1])}"


def input_commands():
    """Every subcommand that reads a b-file, as the parser defines them."""
    (commands,) = (
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [name for name, p in commands.items() if any(a.dest == "input" for a in p._actions)]


def line_value(out, n):
    """a_n of a b-file text."""
    return out.splitlines()[n - 1].split()[1]


# command -> (options, value checked and its expected int, from the output,
# the int terms and D_n at n = 20,999).  A command missing here runs with no
# options, and only its exit code is checked.
INPUT_COMMAND_CASES = {
    "check": (["--json"], lambda out, a, D: (json.loads(out)["records"][-2]["dold_value"], D)),
    "orbits": ([], lambda out, a, D: (line_value(out, 20999), D // 20999)),
    "local": (
        ["--prime", "2", "--json"],
        lambda out, a, D: (json.loads(out)["local_reports"][0]["p_part"][20998], a[20998] & -a[20998]),
    ),
    "sample": (["--monomial", "2"], lambda out, a, D: (line_value(out, 144), a[144**2 - 1])),
    "power": (["--poly", "1"], lambda out, a, D: (line_value(out, 20999), a[20998])),
    "scale": (["--mult", "5"], lambda out, a, D: (line_value(out, 20999), 5 * a[20998])),
    "multiplier": (
        ["--json"],
        lambda out, a, D: (json.loads(out)["multiplier"]["denominators"][20998], 20999 // math.gcd(D, 20999)),
    ),
    "realize": ([], lambda out, a, D: (json.loads(out, parse_int=str)["20999"], D // 20999)),
}


@pytest.mark.parametrize("command", input_commands())
def test_every_input_command_answers_past_the_digit_limit(command, lucas_21000, capsys, monkeypatch):
    path, lucas = lucas_21000
    options, value = INPUT_COMMAND_CASES.get(command, ([], None))
    code, out, err = run_cli([command, str(path), *options], capsys, monkeypatch)
    assert code in (0, 1) and err == ""
    if value is not None:
        got, want = value(out, lucas, naive_dold(lucas, 20999))
        assert residues(str(got)) == [want % p for p in PRIMES]


def test_local_all_refuses_a_term_past_its_factoring_bound_by_size(lucas_21000, capsys, monkeypatch):
    path, _ = lucas_21000
    n = next(i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line.split()[1]) > 4300)
    start = time.perf_counter()
    code, out, err = run_cli(["local", "--all", str(path)], capsys, monkeypatch)
    assert time.perf_counter() - start < 3  # parsing 21,000 terms included
    assert (code, out) == (2, "")
    assert err == f"error: a_{n} has 4,301 digits, too many to factor (max 4,300)\n"


def test_multiplier_prints_values_past_the_str_digit_limit(tmp_path, capsys, monkeypatch):
    # the multiplier of fiblike(4) up to N = 20,000 has 4,368 digits, past
    # CPython's 4,300-digit int->str limit
    monkeypatch.chdir(tmp_path)
    assert run_cli(["gen", "fiblike", "4", "--terms", "20000", "--out", "f4.b"], capsys, monkeypatch)[:2] == (0, "")
    code, out, err = run_cli(["multiplier", "f4.b"], capsys, monkeypatch)
    assert (code, err) == (1, "")
    value = out.splitlines()[0].rpartition(" ")[2]
    code, out, err = run_cli(["multiplier", "--json", "f4.b"], capsys, monkeypatch)
    assert (code, err) == (1, "")
    doc = json.loads(out)["multiplier"]
    assert doc["value"] == value and len(value) > 4300
    a = list(fibonacci_like(4, 20000).terms)
    denominators = [int(d) for d in doc["denominators"]]
    for n in [*range(1, 301), 19_998, 19_999, 20_000]:
        assert denominators[n - 1] == n // math.gcd(naive_dold(a, n), n), n
    multiplier = math.lcm(*denominators)
    with decimal.localcontext(EXACT_CONTEXT):
        for p in (10**9 + 7, 998244353, 2**61 - 1):
            assert int(Decimal(value) % p) == multiplier % p


@pytest.mark.parametrize(
    "terms, expected",
    [
        (
            ["--terms", "3"],
            (
                2,
                "",
                "error: sampling to N=3 needs a source prefix of length 3^100000000, "
                "but only 4 terms are available\n",
            ),
        ),
        ([], (0, "1 1\n", "")),  # h(1) = 1 is the only index that fits
    ],
)
def test_sample_decides_a_huge_monomial_from_sizes(terms, expected, capsys, monkeypatch):
    start = time.perf_counter()
    argv = ["sample", "--monomial", "100000000", *terms]
    assert run_cli(argv, capsys, monkeypatch, stdin_text=LUCAS10[:16]) == expected
    assert time.perf_counter() - start < 1


def test_sample_writes_a_long_length_as_a_power(capsys, monkeypatch):
    argv = ["sample", "--monomial", "700", "--terms", "1000000"]
    code, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=LUCAS10[:16])
    assert_bounded_refusal(code, out, err)
    assert "length 1000000^700," in err


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7])
@pytest.mark.parametrize("have", [1, 2, 63, 64, 65, 128])
def test_sample_default_horizon_matches_a_scan(k, have, capsys, monkeypatch):
    text = "".join(f"{n} {n}\n" for n in range(1, have + 1))
    code, out, _ = run_cli(["sample", "--monomial", str(k)], capsys, monkeypatch, stdin_text=text)
    N = naive_sample_fit(k, have)
    assert (code, out) == (0, "".join(f"{n} {n**k}\n" for n in range(1, N + 1)))
    argv = ["sample", "--monomial", str(k), "--terms", str(N + 1)]
    code, _, err = run_cli(argv, capsys, monkeypatch, stdin_text=text)
    assert code == 2 and f"length {(N + 1) ** k}," in err


@pytest.mark.parametrize("command", [["orbits"], ["local", "--all"], ["realize"], ["power", "--poly", "1"]])
def test_an_int_past_the_digit_limit_gets_a_short_refusal(command, capsys, monkeypatch):
    # every command reads the term, and only local --all, which would factor
    # it, refuses: at once, from its size
    big, half = "7" * 4301, "3" + "8" * 4300  # a_2 and D_2 / 2 = (a_2 - 1) / 2
    answers = {
        "orbits": f"1 1\n2 {half}\n",
        "realize": f'{{\n  "1": 1,\n  "2": {half}\n}}\n',
        "power": f"1 1\n2 {big}\n",
    }
    start = time.perf_counter()
    code, out, err = run_cli(command, capsys, monkeypatch, stdin_text=f"1 1\n2 {big}\n")
    if command[0] in answers:
        assert (code, out, err) == (0, answers[command[0]], "")
    else:
        assert time.perf_counter() - start < 1
        assert_bounded_refusal(code, out, err)
        assert err == "error: a_2 has 4,301 digits, too many to factor (max 4,300)\n"


def test_realize_writes_a_long_total_past_the_cap_by_its_digits(capsys, monkeypatch):
    argv = ["realize", "--explicit", "5"]
    code, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=f"1 1\n2 {'7' * 4301}\n")
    assert_bounded_refusal(code, out, err)
    assert err == "error: cycle type needs a 4,301-digit number of points, exceeding the cap of 5\n"


def test_sample_writes_a_long_table_length_by_its_digits(tmp_path, capsys, monkeypatch):
    table = tmp_path / "h.b"
    table.write_text(f"1 1\n2 {'7' * 4301}\n", encoding="ascii")
    argv = ["sample", "--table", str(table), "--terms", "2"]
    code, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=LUCAS10)
    assert_bounded_refusal(code, out, err)
    assert err == (
        "error: sampling to N=2 needs a source prefix of a 4,301-digit length, "
        "but only 10 terms are available\n"
    )
    assert run_cli(argv[:-2], capsys, monkeypatch, stdin_text=LUCAS10) == (0, "1 1\n", "")


# a b-file whose a_2 is -(4,301 sevens), past CPython's digit limit
SIGNED_PAST_THE_LIMIT = f"1 1\n2 -{'7' * 4301}\n"

# the commands that do not refuse signed input, and their exit codes and output
SIGNED_ANSWERS = {
    ("orbits",): (1, f"1 1\n2 -3{'8' * 4299}9\n"),  # D_2 / 2 = (a_2 - 1) / 2
    ("sample", "--monomial", "1"): (0, SIGNED_PAST_THE_LIMIT),
    ("scale", "--mult", "2"): (0, f"1 2\n2 -1{'5' * 4300}4\n"),
}


def signed_input_cases():
    """Every input command on that b-file, each required option given, and
    sample with the b-file as its table."""
    options = {
        "local": [["--prime", "2"], ["--all"]],
        "sample": [["--monomial", "1"], ["--table", "signed.b", "-"]],
        "power": [["--poly", "1"]],
        "scale": [["--mult", "2"]],
    }
    return [(c, *o) for c in input_commands() for o in options.get(c, [[]])]


@pytest.mark.parametrize("argv", signed_input_cases(), ids=" ".join)
def test_a_signed_term_past_the_digit_limit_gets_a_short_refusal_or_an_answer(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("signed.b").write_text(SIGNED_PAST_THE_LIMIT, encoding="ascii")
    table = "--table" in argv
    stdin = LUCAS10 if table else SIGNED_PAST_THE_LIMIT
    code, out, err = run_cli(list(argv), capsys, monkeypatch, stdin_text=stdin)
    if argv in SIGNED_ANSWERS:
        assert (code, out, err) == (*SIGNED_ANSWERS[argv], "")
    else:
        assert_bounded_refusal(code, out, err)
        named = "h(2)" if table else "a_2"
        assert f"; {named} = a negative 4,301-digit number" in err


@pytest.mark.parametrize(
    "table, argv, length",
    [
        ("1 1\n2 {}\n", ["--terms", "2"], "a source prefix of a 400,000-digit length"),
        ("1 {}\n", [], "N=1 (needs a 400,000-digit number of terms)"),
    ],
)
def test_sample_refuses_a_huge_table_entry_at_once(table, argv, length, tmp_path, capsys, monkeypatch):
    path = tmp_path / "h.b"
    path.write_text(table.format("9" * 400_000), encoding="ascii")
    start = time.perf_counter()
    code, out, err = run_cli(["sample", "--table", str(path), *argv], capsys, monkeypatch, stdin_text=LUCAS10)
    assert time.perf_counter() - start < 1
    assert_bounded_refusal(code, out, err)
    assert length in err


# gen arguments whose last terms pass CPython's 4,300-digit limit; the
# bernoulli-beta terms, denominators, stay a few dozen digits long
GEN_PAST_THE_LIMIT = {
    "fiblike": ["3", "--terms", "20700"],
    "linrec": ["--coeffs", "1,1", "--init", "1,3", "--terms", "20700"],
    "stirling": ["2", "3", "--terms", "9100"],
    "euler": ["--terms", "850"],
    "bernoulli-tau": ["--terms", "1050"],
}


@pytest.mark.parametrize("family", [f for f in cli._GEN_FAMILIES if f != "bernoulli-beta"])
def test_gen_writes_terms_past_the_digit_limit_that_check_reads(family, tmp_path, capsys, monkeypatch):
    built, write = [], seqio.format_bfile  # the prefix gen writes, kept to compare
    monkeypatch.setattr(seqio, "format_bfile", lambda a: built.append(a) or write(a))
    path = tmp_path / "g.b"
    argv = ["gen", family, *GEN_PAST_THE_LIMIT[family], "--out", str(path)]
    assert run_cli(argv, capsys, monkeypatch) == (0, "", "")
    fields = [line.split()[1] for line in path.read_text().splitlines()]
    assert max(map(len, fields)) > 4300
    assert [seqio._decimal_term(f) for f in fields] == list(built[0].terms)
    code, out, err = run_cli(["check", str(path)], capsys, monkeypatch)
    assert code in (0, 1) and out and err == ""


def test_local_prime_writes_a_p_part_past_the_digit_limit(capsys, monkeypatch):
    a2 = 2**20000
    stdin = f"1 1\n2 {Decimal(a2)}\n"
    code, out, err = run_cli(["local", "--prime", "2", "--json"], capsys, monkeypatch, stdin_text=stdin)
    assert (code, err) == (1, "")  # D_2 = 2^20000 - 1 is odd
    p_part = json.loads(out, parse_int=str)["local_reports"][0]["p_part"]
    assert p_part[0] == "1" and seqio._decimal_term(p_part[1]) == a2


def test_a_report_that_fails_while_written_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    def failing_chunks(doc):
        yield "{"
        raise MemoryError

    monkeypatch.setattr(cli.seqio, "_doc_chunks", failing_chunks)
    out = tmp_path / "report.json"
    argv = ["check", "--json", "--out", str(out)]
    assert run_cli(argv, capsys, monkeypatch, stdin_text=LUCAS10) == (2, "", "error: out of memory\n")
    assert not out.exists()


def test_gen_linrec_prints_no_negative_zero(capsys, monkeypatch):
    argv = ["gen", "linrec", "--coeffs=-1,-1", "--init", "0,0", "--terms", "4"]
    assert run_cli(argv, capsys, monkeypatch) == (0, "1 0\n2 0\n3 0\n4 0\n", "")


def test_sample_help_names_its_own_default(capsys, monkeypatch):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["sample", "-h"])
    out = " ".join(capsys.readouterr().out.split())
    assert "horizon (default: the largest N whose sampling indices fit in the input)" in out
