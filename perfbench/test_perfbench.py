"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import worker
import workloads
from tracer import Span, self_times

BENCH_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(workloads.SRC))
import realizable  # noqa: E402
import realizable.cli  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, "op", "root", 0.0, 10.0, helper_s=1.0),
        Span(1, 0, "op", "a", 1.0, 4.0, helper_s=0.0),
        Span(2, 0, "op", "b", 5.0, 9.0, helper_s=0.5),
        Span(3, 2, "op", "c", 6.0, 7.0, helper_s=0.0),
    ]
    assert self_times(spans) == {0: 2.0, 1: 3.0, 2: 2.5, 3: 1.0}


def test_metric_and_workload_names():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)


def test_reference_arithmetic_agrees_with_the_naive_oracles():
    helpers = workloads.load_helpers()
    terms = oracles.fiblike(4, 60)
    assert oracles.dold_table(terms) == [helpers.naive_dold(terms, n) for n in range(1, 61)]
    assert oracles.secant_numbers(5) == [1, 5, 61, 1385, 50521]
    assert oracles.recurrence_term_mod((1, 1), (1, 1), 90, 10**9) == 2880067194370816120 % 10**9
    big = 7**3000
    assert oracles.decimal_fingerprint_ok(str(big), big)
    assert not oracles.decimal_fingerprint_ok(str(big + 1), big)
    assert not oracles.decimal_fingerprint_ok("-" + str(big), big)


@pytest.mark.parametrize("workload", ["power-sampling", "classical-local"])
def test_tiny_library_pass_is_correct(workload, tmp_path):
    out = worker.run(workload, 5, tmp_path, trace=False, tiny=True)
    assert [op["detail"] for op in out["ops"] if not op["ok"]] == []


def test_tiny_cli_pass_is_correct(tmp_path):
    params = workloads.cli_params(5, tiny=True)
    _, outcomes, codes, _ = workloads.run_cli_pass(params, tmp_path, timeout=60)
    workloads.verify_cli(params, 5, tmp_path, codes, outcomes, workloads.load_helpers(), None)
    assert [o.detail for o in outcomes if not o.ok] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reports_layers_and_restores_the_originals(workload, tmp_path):
    bindings = [
        (realizable.cli, "check_realizable"),
        (realizable.cli, "main"),
        (realizable.transforms, "check_realizable"),
        (realizable.realizability, "mobius"),
        (realizable.realizability, "divisors"),
        (realizable.local, "factorize"),
        (realizable, "check_realizable"),
    ]
    originals = [getattr(module, attr) for module, attr in bindings]
    out = worker.run(workload, 0, tmp_path, trace=True, tiny=True)
    assert all(a is b for a, b in zip((getattr(m, n) for m, n in bindings), originals))
    assert out["leftover_wrappers"] == []
    assert [op["detail"] for op in out["ops"] if not op["ok"]] == []
    assert set(out["layers"]) == {name for name, _, _ in workloads.PER_LAYER} - {"trace.overhead_s"}
    assert out["layers"]["realizability.check_realizable.calls"] > 0
    assert all(s["end"] >= s["start"] for s in out["spans"])


def test_checks_catch_a_wrong_result(tmp_path):
    helpers = workloads.load_helpers()
    ops = workloads.classical_local_ops(realizable, 0, True, helpers)
    _, outcomes, results = workloads.run_library_pass(ops)
    wrong = {"irregular-primes": [37], "second-term-sweep": [(1, "consistent-up-to-N", None)]}
    results = [wrong.get(op.name, r) for op, r in zip(ops, results)]
    workloads.verify_library(ops, outcomes, results, None)
    assert sorted(o.op for o in outcomes if not o.ok) == sorted(wrong)


def test_checks_catch_a_wrong_cli_output(tmp_path):
    params = workloads.cli_params(0, tiny=True)
    _, outcomes, codes, _ = workloads.run_cli_pass(params, tmp_path, timeout=60)
    scaled = tmp_path / "scaled.b"
    scaled.write_text(scaled.read_text().replace("\n2 ", "\n2 1", 1))
    workloads.verify_cli(params, 0, tmp_path, codes, outcomes, workloads.load_helpers(), None)
    assert [o.op for o in outcomes if not o.ok] == ["scale"]


def test_peak_rss_is_the_child_process_own(tmp_path):
    proc = subprocess.Popen([sys.executable, "-c", "x = bytearray(48 << 20); x[::4096] = b'1' * len(x[::4096])"])
    peak_mb = workloads.wait_peak_rss(proc, timeout=60)
    assert proc.returncode == 0
    assert 48 < peak_mb < 200


def test_a_failed_pass_ends_the_run_and_is_not_timed(monkeypatch, tmp_path):
    calls = []

    def crashing_pass(*args):
        calls.append(args)
        return run.failed_pass("crashed")

    monkeypatch.setattr(run, "run_pass", crashing_pass)
    monkeypatch.setattr(run, "setup_seconds", lambda: (0.05, 10.0))
    metrics, record = run.measured_run("classical-local", 0, 30.0, tmp_path, None)
    assert len(calls) == 1
    assert metrics["wall_s"] is None and record["raw_wall_s"] is None
    assert [op["ok"] for p in record["passes"] for op in p["ops"]] == [False]


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "cli-bfile", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
