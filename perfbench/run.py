"""Benchmark of the ``realizable`` package: three workloads, checked outputs,
end-to-end metrics untraced and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It needs ``src/realizable`` and
``tests/helpers.py`` there; without them it exits 2 and prints no result.

Each workload is a closed loop with one client: an operation starts only
when the previous one has ended, and nothing runs in parallel.  A pass is
one run of the workload's operations; passes repeat while another one still
fits in S seconds of measured time, and there are at least three.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median over passes
of one pass's wall time), ``setup_s`` (median over fresh processes of the
time from process start until ``import realizable`` returns) and
``peak_rss_mb`` (largest peak resident set of any process that runs the
package; a library pass's process is measured before it checks its results).
Times are scaled to a reference machine speed measured around every
operation (``workloads.Pacer``); the unscaled ones are in the results file.
``--trace 1`` runs one untraced pass, then the same pass in-process with
every public function of the package wrapped, and prints the per-layer
metrics plus ``trace.overhead_s`` (traced minus untraced wall time).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of the run,
with run metadata, every pass and, when traced, every span, is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import workloads

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = workloads.ROOT / ".perfbench"
MIN_PASSES = 3  # so that the median drops one pass slowed by the host
SETUP_PROBES = 15  # a third at the start, the middle and the end of the run
OP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # no pass starts that would end past this
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {name: unit for name, unit, _ in workloads.PER_LAYER}

METADATA_DEFINITIONS = {
    "python": "platform.python_version() of the interpreter running the benchmark and the package",
    "int_max_str_digits": "sys.get_int_max_str_digits(): CPython's limit on int<->str conversion, in digits",
    "nproc": "os.cpu_count(): logical CPUs of the machine",
    "cpus_usable": "len(os.sched_getaffinity(0)): CPUs this process may run on",
    "commit": "git rev-parse HEAD of the checkout, or null when it is not a git repository",
    "seed": "the --seed argument; it alone determines every input",
    "src_physical_lines": "lines in src/**/*.py, blank and comment lines included",
    "src_nonblank_lines": "lines in src/**/*.py holding a non-whitespace character",
}


def metadata(seed: int) -> dict:
    lines = [
        line
        for path in sorted(workloads.SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
    ]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "src_physical_lines": len(lines),
        "src_nonblank_lines": sum(1 for line in lines if line.strip()),
        "definitions": METADATA_DEFINITIONS,
    }


def setup_seconds() -> tuple[float, float]:
    """From just before a fresh interpreter is started until it reports that
    ``import realizable`` has returned; and that interpreter's peak resident
    set in MiB."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import realizable, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"],
        env=workloads.child_env(), stdout=subprocess.PIPE, cwd=workloads.ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        peak_mb = workloads.wait_peak_rss(proc, OP_TIMEOUT_S)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("import realizable failed in a fresh interpreter")
    return elapsed, peak_mb


def failed_pass(detail: str) -> dict:
    """A pass whose process did not report: no times, one failed operation."""
    outcome = workloads.Outcome("pass", 0.0, ok=False, detail=detail)
    return {"wall_s": None, "raw_wall_s": None, "peak_rss_mb": 0.0, "ops": [asdict(outcome)]}


def pass_ok(p: dict) -> bool:
    return all(op["ok"] for op in p["ops"])


def run_worker(workload: str, seed: int, workdir: Path, trace: bool) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    if trace:
        argv.append("--trace")
    proc = subprocess.Popen(
        argv,
        env=workloads.child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=workloads.ROOT,
    )
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return failed_pass("timed out")
    if proc.returncode != 0:
        return failed_pass(err.decode(errors="replace").strip()[-500:])
    return json.loads(out.splitlines()[-1])


def run_pass(workload: str, seed: int, workdir: Path, helpers) -> dict:
    """One untraced pass.  Its outputs are checked after the last operation."""
    if workload != "cli-bfile":
        return run_worker(workload, seed, workdir, trace=False)
    params = workloads.cli_params(seed)
    pacer, outcomes, codes, peak_mb = workloads.run_cli_pass(params, workdir, OP_TIMEOUT_S)
    pins = workloads.load_pins(workload, seed, tiny=False)
    workloads.verify_cli(params, seed, workdir, codes, outcomes, helpers, pins)
    return {"wall_s": pacer.scaled, "raw_wall_s": pacer.raw, "peak_rss_mb": peak_mb, "ops": [asdict(o) for o in outcomes]}


def measured_run(workload: str, seed: int, seconds: float, workdir: Path, helpers) -> tuple[dict, dict]:
    pacer = workloads.Pacer()
    setup_raw, setup, setup_peak_mb = [], [], []

    def sample_setup() -> None:
        for _ in range(SETUP_PROBES // 3):
            raw, peak_mb = setup_seconds()
            setup_raw.append(raw)
            setup.append(pacer.scale(raw))
            setup_peak_mb.append(peak_mb)

    sample_setup()
    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(workload, seed, workdir, helpers))
        if not pass_ok(passes[-1]):
            break
        last = passes[-1]["raw_wall_s"]
        measured = sum(p["raw_wall_s"] for p in passes)
        if measured - last < seconds / 2 <= measured:
            sample_setup()
        pass_elapsed = time.perf_counter() - pass_start
        if len(passes) >= MIN_PASSES and measured + last > seconds or time.perf_counter() - started + pass_elapsed > RUN_LIMIT_S:
            break
    sample_setup()
    good = [p for p in passes if pass_ok(p)]  # a failed pass ends the loop; its times are left out
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in good) if good else None,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max([p["peak_rss_mb"] for p in passes] + setup_peak_mb),
    }
    record = {
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in good) if good else None,
        "raw_setup_s": statistics.median(setup_raw),
        "samples": {"wall_s": len(good), "setup_s": len(setup)},
        "setup_samples": setup,
        "passes": passes,
    }
    return metrics, record


def traced_run(workload: str, seed: int, workdir: Path, helpers) -> tuple[dict, dict]:
    untraced = run_pass(workload, seed, workdir, helpers)
    traced = run_worker(workload, seed, workdir, trace=True)
    metrics = dict(traced.get("layers", {}))
    timed = pass_ok(untraced) and traced["wall_s"] is not None
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"] if timed else None
    if traced.get("leftover_wrappers"):
        traced["ops"].append(asdict(workloads.Outcome("unwrap", 0.0, ok=False, detail="still wrapped after the run")))
    return metrics, {"passes": [untraced, traced]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (workloads.SRC / "realizable" / "__init__.py", workloads.HELPERS_FILE) if not p.is_file()]
    if missing:
        print(f"error: not a realizable checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    helpers = workloads.load_helpers()
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, record = traced_run(args.workload, args.seed, workdir, helpers)
        else:
            metrics, record = measured_run(args.workload, args.seed, args.seconds, workdir, helpers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in record["passes"] for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['op']}: {op['detail']}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    full = {
        "workload": args.workload,
        "trace": args.trace,
        "metadata": metadata(args.seed),
        "ops_failed_ratio": failed / len(ops),
        **result,
        **record,
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
