"""The three workloads: inputs made from a seed, the operations run on them,
and the check on every output.

``cli-bfile`` runs the command line, one fresh ``python -m realizable``
process per operation, on a long b-file of moderate terms.
``power-sampling`` and ``classical-local`` are runs of library calls, one fresh
process per pass.  Every operation is checked against reference arithmetic
in ``oracles.py`` and the naive oracles of ``tests/helpers.py``; for the
default seed (0) the results are also compared with ``pins.json``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HELPERS_FILE = ROOT / "tests" / "helpers.py"
PINS_FILE = Path(__file__).resolve().parent / "pins.json"

WORKLOADS = ("cli-bfile", "power-sampling", "classical-local")
DEFAULT_SEED = 0

# per-layer metrics of the traced run: (name, unit, better)
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.read_bytes", "bytes", "lower"),
    ("cli.write_bytes", "bytes", "lower"),
    ("seqio.parse_bfile.s", "s", "lower"),
    ("seqio.parse_bfile.bytes", "bytes", "lower"),
    ("seqio.format_bfile.s", "s", "lower"),
    ("seqio.format_bfile.bytes", "bytes", "lower"),
    ("seqio.realizability_doc.s", "s", "lower"),
    ("seqio.multiplier_doc.s", "s", "lower"),
    ("seqio.dumps_doc.s", "s", "lower"),
    ("seqio.dumps_doc.bytes", "bytes", "lower"),
    ("realizability.check_realizable.calls", "count", "lower"),
    ("realizability.check_realizable.s", "s", "lower"),
    ("realizability.check_realizable.self_s", "s", "lower"),
    ("realizability.dold_values", "count", "lower"),
    ("realizability.max_term_bits", "bits", "lower"),
    ("numtheory.mobius.calls", "count", "lower"),
    ("numtheory.mobius.hit_ratio", "ratio", "higher"),
    ("numtheory.divisors.calls", "count", "lower"),
    ("numtheory.divisors.s", "s", "lower"),
    ("numtheory.factorize.calls", "count", "lower"),
    ("numtheory.factorize.s", "s", "lower"),
    ("numtheory.is_prime.calls", "count", "lower"),
    ("sequences.linear_recurrence_term.calls", "count", "lower"),
    ("sequences.linear_recurrence_term.s", "s", "lower"),
    ("sequences.linear_recurrence_term.max_bits", "bits", "lower"),
    ("sequences.fibonacci_like.s", "s", "lower"),
    ("sequences.euler_abs_sequence.s", "s", "lower"),
    ("sequences.bernoulli_numbers.calls", "count", "lower"),
    ("sequences.bernoulli_numbers.s", "s", "lower"),
    ("sequences.stirling_row_sequence.s", "s", "lower"),
    ("transforms.luca_ward_check.self_s", "s", "lower"),
    ("transforms.minimal_multiplier.calls", "count", "lower"),
    ("transforms.minimal_multiplier.s", "s", "lower"),
    ("transforms.minimal_multiplier.self_s", "s", "lower"),
    ("transforms.denominator_prime_scan.s", "s", "lower"),
    ("transforms.sample.s", "s", "lower"),
    ("transforms.scale.s", "s", "lower"),
    ("local.support_primes.s", "s", "lower"),
    ("local.check_local.calls", "count", "lower"),
    ("local.check_local.s", "s", "lower"),
    ("local.p_part.s", "s", "lower"),
    ("construct.realize_cycle_type.s", "s", "lower"),
    ("construct.explicit_permutation.s", "s", "lower"),
    ("construct.explicit_permutation.points", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Outcome:
    """One operation of one pass: how long it took and whether its output held."""

    op: str
    seconds: float  # wall time
    scaled_s: float = 0.0  # wall time at the reference speed (see Pacer)
    ok: bool = True
    detail: str = ""
    digest: str = ""


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_helpers():
    spec = importlib.util.spec_from_file_location("realizable_test_helpers", HELPERS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_pins(workload: str, seed: int, tiny: bool) -> dict | None:
    if seed != DEFAULT_SEED or tiny:
        return None
    return json.loads(PINS_FILE.read_text())[workload]


def wait_peak_rss(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` like ``Popen.wait(timeout)`` and return its peak
    resident set in MiB, from the rusage of that one process."""
    deadline = time.monotonic() + timeout
    delay = 0.0005
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024
        if time.monotonic() > deadline:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        time.sleep(delay)
        delay = min(2 * delay, 0.005)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ============================================================ machine speed

# The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU KVM
# guest, the same computation took up to 1.7 times longer for stretches of
# 5 to 30 seconds, set by load outside the guest.  So a fixed reference
# computation, which never calls the package, is timed before and after
# every operation, and each operation's wall time is scaled by
# REFERENCE_PROBE_S over the mean of the two probes around it.  Scaled times
# read as seconds at a fixed machine speed; raw times are kept alongside.
REFERENCE_PROBE_S = 0.04
_PROBE_INT = 3**250000


def probe_seconds() -> float:
    """Wall time of the reference computation: a big-int product, a
    decimal conversion and an interpreted dict loop."""
    start = time.perf_counter()
    x = _PROBE_INT * (_PROBE_INT + 1)
    str(x % 10**1200)
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i * i % 7
    return time.perf_counter() - start


class Pacer:
    """Scales each operation's wall time by the probes on either side of it."""

    def __init__(self) -> None:
        self.before = probe_seconds()
        self.raw = self.scaled = 0.0

    def scale(self, seconds: float) -> float:
        """Probe again; return ``seconds`` at the reference speed."""
        after = probe_seconds()
        scaled = seconds * 2 * REFERENCE_PROBE_S / (self.before + after)
        self.before = after
        self.raw += seconds
        self.scaled += scaled
        return scaled


# ================================================================ cli-bfile

# The default seed gives C = 3 (Lucas).  For every other C the minimal
# multiplier has about 0.22 N digits: at N = 20,000 it passes CPython's
# 4,300-digit str limit and `multiplier` exits 2, so N is 18,000.
CLI_C_POOL = (3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)


@dataclass(frozen=True)
class CliParams:
    c: int
    terms: int


def cli_params(seed: int, tiny: bool = False) -> CliParams:
    return CliParams(c=CLI_C_POOL[seed % len(CLI_C_POOL)], terms=300 if tiny else 18000)


@dataclass(frozen=True)
class CliOp:
    name: str
    argv: tuple[str, ...]
    stdin: str | None  # file fed on stdin
    stdout: str | None  # file stdout is written to
    reads: str | None  # the b-file the command reads
    writes: str  # the file the command produces


def cli_ops(p: CliParams) -> list[CliOp]:
    return [
        CliOp("gen", ("gen", "fiblike", str(p.c), "--terms", str(p.terms), "--out", "in.b"), None, None, None, "in.b"),
        CliOp("check-json", ("check", "in.b", "--json"), None, "check.json", "in.b", "check.json"),
        CliOp("multiplier-json", ("multiplier", "in.b", "--json"), None, "multiplier.json", "in.b", "multiplier.json"),
        CliOp("sample", ("sample", "in.b", "--monomial", "2"), None, "sampled.b", "in.b", "sampled.b"),
        CliOp("scale", ("scale", "--mult", "5"), "sampled.b", "scaled.b", "sampled.b", "scaled.b"),
        CliOp("check", ("check",), "scaled.b", "verdict.txt", "scaled.b", "verdict.txt"),
    ]


def run_cli_pass(p: CliParams, workdir: Path, timeout: float) -> tuple[Pacer, list[Outcome], dict[str, int], float]:
    """One fresh process per operation, each started after the previous
    ended.  Also returns the largest peak resident set (MiB) of those
    processes."""
    outcomes, codes, peak_mb = [], {}, 0.0
    pacer = Pacer()
    for op in cli_ops(p):
        stdin = open(workdir / op.stdin, "rb") if op.stdin else subprocess.DEVNULL
        stdout = open(workdir / op.stdout, "wb") if op.stdout else subprocess.DEVNULL
        stderr = open(workdir / "stderr.txt", "wb")
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "realizable", *op.argv],
                cwd=workdir, env=child_env(), stdin=stdin, stdout=stdout, stderr=stderr,
            )
            try:
                peak_mb = max(peak_mb, wait_peak_rss(proc, timeout))
                elapsed = time.perf_counter() - start
                codes[op.name] = proc.returncode
                detail = (workdir / "stderr.txt").read_text(errors="replace").strip()[-300:]
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                elapsed = time.perf_counter() - start
                codes[op.name] = -1
                detail = f"timed out after {timeout:.0f} s"
        finally:
            for fh in (stdin, stdout, stderr):
                if fh is not subprocess.DEVNULL:
                    fh.close()
        outcomes.append(Outcome(op.name, elapsed, detail=detail))
        outcomes[-1].scaled_s = pacer.scale(elapsed)
    return pacer, outcomes, codes, peak_mb


def run_cli_pass_inprocess(p: CliParams, workdir: Path, main, tracer) -> tuple[Pacer, list[Outcome], dict[str, int]]:
    """The same operations through ``main(argv)`` in this process, with
    stdin and stdout swapped for in-memory files."""
    outcomes, codes = [], {}
    saved = sys.stdin, sys.stdout
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        pacer = Pacer()
        for op in cli_ops(p):
            tracer.op = op.name
            sys.stdin = io.StringIO(Path(op.stdin).read_text() if op.stdin else "")
            sys.stdout = captured = io.StringIO()
            start = time.perf_counter()
            try:
                codes[op.name] = main(list(op.argv))
                detail = ""
            except Exception as err:  # noqa: BLE001 - a crash is a failed operation
                codes[op.name] = -1
                detail = f"{type(err).__name__}: {err}"[:300]
            if op.stdout:
                Path(op.stdout).write_text(captured.getvalue())
            outcomes.append(Outcome(op.name, time.perf_counter() - start, detail=detail))
            sys.stdin, sys.stdout = saved
            outcomes[-1].scaled_s = pacer.scale(outcomes[-1].seconds)
            if op.reads:
                tracer.add("cli.read_bytes", os.path.getsize(op.reads))
            tracer.add("cli.write_bytes", os.path.getsize(op.writes))
    finally:
        sys.stdin, sys.stdout = saved
        os.chdir(cwd)
    return pacer, outcomes, codes


def _check_records(records: list[dict], dold: list[int], exact: list[int]) -> str | None:
    if [r["n"] for r in records] != list(range(1, len(dold) + 1)):
        return "record indices are not 1..N"
    for r, value in zip(records, dold):
        n = r["n"]
        if (r["dold_mod_n"], r["sign_ok"], r["divisibility_ok"]) != (str(value % n), value >= 0, value % n == 0):
            return f"record {n}: residue or condition flags disagree with the reference"
        if not oracles.decimal_fingerprint_ok(r["dold_value"], value):
            return f"record {n}: Dold value disagrees with the reference"
    for n in exact:
        if records[n - 1]["dold_value"] != str(dold[n - 1]):
            return f"record {n}: Dold value is not exactly the reference"
    return None


def _check_bfile(text: str, terms: list[int], exact: list[int]) -> str | None:
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != len(terms) + 1:
        return f"expected {len(terms)} newline-terminated lines"
    for n, (line, value) in enumerate(zip(lines, terms), start=1):
        index, _, digits = line.partition(" ")
        if index != str(n) or not oracles.decimal_fingerprint_ok(digits, value):
            return f"line {n} disagrees with the reference term"
    for n in exact:
        if lines[n - 1] != f"{n} {terms[n - 1]}":
            return f"line {n} is not exactly the reference term"
    return None


def verify_cli(
    p: CliParams, seed: int, workdir: Path, codes: dict[str, int], outcomes: list[Outcome],
    helpers, pins: dict | None,
) -> None:
    """Check every output file and exit code; mark failures on the outcomes
    in place."""
    for outcome, op in zip(outcomes, cli_ops(p)):
        path = workdir / op.writes
        outcome.digest = f"{sha256_file(path) if path.exists() else ''}/exit{codes.get(op.name)}"
    problems = _cli_problems(p, seed, workdir, codes, outcomes, helpers, pins)
    for outcome in outcomes:
        if problems.get(outcome.op):
            outcome.ok, outcome.detail = False, problems[outcome.op]


def _cli_problems(
    p: CliParams, seed: int, workdir: Path, codes: dict[str, int], outcomes: list[Outcome], helpers, pins: dict | None
) -> dict[str, str | None]:
    rng = random.Random(seed)
    N = p.terms
    terms = oracles.fiblike(p.c, N)
    dold = oracles.dold_table(terms)
    exact = sorted(set(range(1, min(N, 12) + 1)) | set(rng.sample(range(1, N + 1), 6)) | {N})
    naive_ok = all(helpers.naive_dold(terms, n) == dold[n - 1] for n in exact)
    want_verdict = oracles.verdict(dold)
    dens = oracles.denominators(dold)
    mult = oracles.multiplier(dens)

    M = isqrt(N)
    sampled = [terms[n * n - 1] for n in range(1, M + 1)]
    scaled = [5 * t for t in sampled]
    scaled_verdict = oracles.verdict(oracles.dold_table(scaled))

    def check_doc(name: str) -> str | None:
        doc = json.loads((workdir / f"{name}.json").read_text())
        if not naive_ok:
            return "reference Dold values disagree with naive_dold"
        got = (doc["horizon"], doc["verdict"], doc["first_failure"])
        ff = want_verdict[1]
        if got != (N, want_verdict[0], None if ff is None else {"n": ff[0], "condition": ff[1]}):
            return f"verdict {got[1:]} disagrees with the reference {want_verdict}"
        problem = _check_records(doc["records"], dold, exact)
        if problem or name == "check":
            return problem
        m = doc["multiplier"]
        if (m["value"], m["sign_ok"]) != (str(mult), all(v >= 0 for v in dold)):
            return "multiplier value or sign flag disagrees with the reference"
        if m["denominators"] != [str(d) for d in dens]:
            return "denominators disagree with the reference"
        return None

    def check_verdict_text() -> str | None:
        text = (workdir / "verdict.txt").read_text()
        verdict, ff = scaled_verdict
        if ff is None:
            return None if text.startswith(f"consistent up to N={M} ") else "expected a consistent verdict"
        return None if text.endswith(f"verdict: {verdict}\n") and f" at n={ff[0]} " in text else "wrong failure text"

    expected_codes = {
        "gen": 0,
        "check-json": 0 if want_verdict[1] is None else 1,
        "multiplier-json": 0 if mult == 1 and all(v >= 0 for v in dold) else 1,
        "sample": 0,
        "scale": 0,
        "check": 0 if scaled_verdict[1] is None else 1,
    }
    verdicts = {"check-json": want_verdict, "multiplier-json": want_verdict, "check": scaled_verdict}
    checks: dict[str, Callable[[], str | None]] = {
        "gen": lambda: _check_bfile((workdir / "in.b").read_text(), terms, exact),
        "check-json": lambda: check_doc("check"),
        "multiplier-json": lambda: check_doc("multiplier"),
        "sample": lambda: _check_bfile((workdir / "sampled.b").read_text(), sampled, range(1, M + 1)),
        "scale": lambda: _check_bfile((workdir / "scaled.b").read_text(), scaled, range(1, M + 1)),
        "check": check_verdict_text,
    }
    problems = {}
    for outcome, op in zip(outcomes, cli_ops(p)):
        problem = None
        if codes.get(op.name) != expected_codes[op.name]:
            problem = f"exit code {codes.get(op.name)}, expected {expected_codes[op.name]}"
        else:
            try:
                problem = checks[op.name]()
            except (OSError, ValueError, KeyError, TypeError) as err:
                problem = f"unreadable output: {type(err).__name__}: {err}"[:300]
        if problem is None and pins is not None:
            if pins["files"][op.writes] != outcome.digest.partition("/")[0]:
                problem = f"sha256 of {op.writes} differs from the pinned default-seed output"
            elif op.name in pins["verdicts"] and pins["verdicts"][op.name] != json.loads(json.dumps(verdicts[op.name])):
                problem = "verdict or first failure differs from the pinned default-seed one"
        problems[op.name] = problem
    return problems


# ============================================================= library calls


@dataclass(frozen=True)
class LibraryOp:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is right


def _check_report_mod(report, term_mod: Callable[[int, int], int], helpers) -> str | None:
    """Every record of a horizon check, against naive_dold on the terms
    reduced mod a 61-bit prime and mod n.  Condition (D) must hold at every
    n, and the terms grow, so (S) holds too."""
    N = report.horizon
    if [r.n for r in report.records] != list(range(1, N + 1)):
        return "record indices are not 1..N"
    for r in report.records:
        n = r.n
        if r.dold_value % oracles.Q61 != _naive_dold_mod(helpers, term_mod, n, oracles.Q61):
            return f"D_{n} disagrees with naive_dold mod 2^61-1"
        if r.dold_mod_n != _naive_dold_mod(helpers, term_mod, n, n):
            return f"D_{n} mod {n} disagrees with naive_dold"
        if not (r.divisibility_ok and r.dold_mod_n == 0):
            return f"condition (D) fails at n={n} for a multiple of the congruence multiplier"
        if not (r.sign_ok and r.dold_value > 0):
            return f"condition (S) fails at n={n}"
    if (report.verdict, report.first_failure) != ("consistent-up-to-N", None):
        return f"verdict {report.verdict} for a sequence passing (D) and (S) everywhere"
    return None


def _naive_dold_mod(helpers, term_mod: Callable[[int, int], int], n: int, q: int) -> int:
    """naive_dold mod q on a prefix holding term_mod(d, q) at each d | n
    (the only entries the divisor sum reads)."""
    terms = [0] * n
    for d in helpers.naive_divisors(n):
        terms[d - 1] = term_mod(d, q)
    return helpers.naive_dold(terms, n) % q


def _check_report_exact(report, terms: list[int], helpers, exact: list[int]) -> str | None:
    dold = oracles.dold_table(terms)
    if [(r.n, r.dold_value, r.dold_mod_n, r.sign_ok, r.divisibility_ok) for r in report.records] != [
        (n, v, v % n, v >= 0, v % n == 0) for n, v in enumerate(dold, start=1)
    ]:
        return "records disagree with the reference Dold values"
    if any(helpers.naive_dold(terms, n) != dold[n - 1] for n in exact if n <= len(terms)):
        return "reference Dold values disagree with naive_dold"
    if (report.verdict, report.first_failure) != oracles.verdict(dold):
        return f"verdict {report.verdict, report.first_failure} disagrees with the reference"
    return None


def power_sampling_ops(R, seed: int, tiny: bool, helpers) -> list[LibraryOp]:
    """Scaled power sampling: a handful of terms with 10^5 to 10^6 bits."""
    k = 1 + seed % 9
    fib, trib = R.LUCA_WARD_PARAMETER_SETS
    trib_N, s2_N, s4_N, cube_N = (4, 20, 8, 20) if tiny else (9, 200, 30, 60)

    def sampled_mod(params, M, s):
        rec = params.recurrence
        return lambda n, q: M * oracles.recurrence_term_mod(rec.coefficients, rec.initial, n**s, q)

    def luca(params, M, s, N):
        return LibraryOp(
            f"luca-ward-{params.name}-s{s}",
            lambda: R.luca_ward_check(params.recurrence, M, s, N),
            lambda report: _check_report_mod(report, sampled_mod(params, M, s), helpers),
        )

    def cubes():
        a = R.Seq(tuple(R.fibonacci_term(n**3) for n in range(1, cube_N + 1)))
        return R.minimal_multiplier(a, cube_N), R.denominator_prime_scan(a, cube_N)

    def check_cubes(result) -> str | None:
        mult, primes = result
        cube_mod = sampled_mod(fib, 1, 3)
        dens = [n // gcd(_naive_dold_mod(helpers, cube_mod, n, n), n) for n in range(1, cube_N + 1)]
        if list(mult.denominators) != dens or mult.multiplier != oracles.multiplier(dens) or not mult.sign_ok:
            return "denominators or multiplier disagree with naive_dold mod n"
        want = set().union(*(oracles.prime_factors(d) for d in dens))
        if primes != want:
            return f"denominator primes {sorted(primes)}, expected {sorted(want)}"
        if not tiny and primes != {2, 3, 5, 7, 13, 17, 23, 37, 43, 47, 53}:
            return "denominator primes differ from acceptance criterion c05"
        return None

    return [
        luca(trib, k * trib.congruence_multiplier, 6, trib_N),
        luca(fib, k * fib.congruence_multiplier, 2, s2_N),
        luca(fib, k * fib.congruence_multiplier, 4, s4_N),
        LibraryOp("fibonacci-cubes", cubes, check_cubes),
    ]


# C whose everywhere-local scan at N = 120 costs about the same (about 210
# support primes, little Pollard rho time), so the seed moves no work
LOCAL_C_POOL = (4, 5, 9, 12, 19, 20, 21)


def seeded_cycle_type(rng: random.Random, points: int, horizon: int) -> dict[int, int]:
    """Random cycle counts for lengths 2..horizon, topped up with fixed
    points to exactly ``points`` points."""
    counts = {L: rng.randint(0, points // (horizon * L)) for L in range(2, horizon + 1)}
    counts = {L: c for L, c in counts.items() if c}
    return {1: points - sum(L * c for L, c in counts.items()), **counts}


def classical_local_ops(R, seed: int, tiny: bool, helpers) -> list[LibraryOp]:
    """Many short checks, exact generator sums, factorization and a permutation."""
    rng = random.Random(seed)
    sweep = 30 if tiny else 600
    first_c = 1 + (seed % 50) * 100
    euler_N, tb_N, tb_h, irr, stir_N, stir1_N, local_N = (
        (30, 20, 16, 60, 30, 30, 30) if tiny else (300, 60, 40, 600, 200, 100, 120)
    )
    stir1_k = 2 + seed % 4
    local_c = LOCAL_C_POOL[seed % len(LOCAL_C_POOL)]
    points, horizon = (500, 12) if tiny else (100_000, 30)
    cycle_counts = seeded_cycle_type(rng, points, horizon)

    def second_term_sweep():
        out = []
        for c in range(first_c, first_c + sweep):
            report = R.check_realizable(R.fibonacci_like(c, 30), 30)
            out.append((c, report.verdict, report.first_failure))
        return out

    def check_sweep(result):
        want = [(c, *oracles.verdict(oracles.dold_table(oracles.fiblike(c, 30)))) for c in range(first_c, first_c + sweep)]
        return None if result == want else "a second-term verdict disagrees with the reference"

    def euler():
        a = R.euler_abs_sequence(euler_N)
        return a, R.check_realizable(a, euler_N)

    def check_euler(result):
        a, report = result
        terms = oracles.secant_numbers(euler_N)
        if list(a.terms) != terms:
            return "secant numbers disagree with the Seidel boustrophedon"
        return _check_report_exact(report, terms, helpers, [1, 2, 3, 5, 8, 12])

    def tau_beta():
        tau, beta = R.tau_beta_sequences(tb_N)
        locals_ = [R.check_local(tau, p, tb_h) for p in (5, 7, 11, 13, 37)]
        return tau, beta, R.check_realizable(tau, tb_N), R.check_realizable(beta, tb_N), locals_

    def check_tau_beta(result):
        tau, beta, rep_tau, rep_beta, locals_ = result
        want_tau, want_beta = oracles.tau_beta(helpers.bernoulli_by_series(2 * tb_N), tb_N)
        if (list(tau.terms), list(beta.terms)) != (want_tau, want_beta):
            return "tau/beta disagree with Bernoulli numbers from the series reciprocal"
        for report, terms in ((rep_tau, want_tau), (rep_beta, want_beta)):
            problem = _check_report_exact(report, terms, helpers, [1, 4, 6, 12])
            if problem:
                return problem
        for rep, p in zip(locals_, (5, 7, 11, 13, 37)):
            part = oracles.p_part(want_tau, p)
            if rep.prime != p or list(rep.p_part_sequence.terms) != part:
                return f"{p}-part disagrees with the reference"
            problem = _check_report_exact(rep.report, part[:tb_h], helpers, [])
            if problem:
                return f"p={p}: {problem}"
        return None

    def check_irregular(result):
        want = [p for p in oracles.IRREGULAR_PRIMES_600 if p <= irr]
        return None if result == want else "irregular primes disagree with A000928"

    def stirling():
        mults = [R.minimal_multiplier(R.stirling_row_sequence(2, k, stir_N), stir_N) for k in range(1, 9)]
        return mults, R.denominator_prime_scan(R.stirling_row_sequence(1, stir1_k, stir1_N), stir1_N)

    def check_stirling(result):
        mults, primes = result
        for k, m in enumerate(mults, start=1):
            dold = oracles.dold_table(oracles.stirling_diagonal(2, k, stir_N))
            dens = oracles.denominators(dold)
            if (m.multiplier, m.sign_ok, list(m.denominators)) != (oracles.multiplier(dens), all(v >= 0 for v in dold), dens):
                return f"second-kind k={k}: multiplier disagrees with the reference"
        dens = oracles.denominators(oracles.dold_table(oracles.stirling_diagonal(1, stir1_k, stir1_N)))
        want = set().union(*(oracles.prime_factors(d) for d in dens))
        return None if primes == want else "first-kind denominator primes disagree with the reference"

    def check_everywhere(reports):
        terms = oracles.fiblike(local_c, local_N)
        primes = [r.prime for r in reports]
        if primes != sorted(set(primes)) or not all(oracles.is_probable_prime(p) for p in primes):
            return "support primes are not ascending distinct primes"
        for t in terms:
            rebuilt = 1
            for p in primes:
                rebuilt *= p ** oracles.valuation(t, p)
            if rebuilt != t:
                return "the support primes do not account for every prime factor"
        for r in reports:
            part = oracles.p_part(terms, r.prime)
            if list(r.p_part_sequence.terms) != part:
                return f"{r.prime}-part disagrees with the reference"
            problem = _check_report_exact(r.report, part, helpers, [])
            if problem:
                return f"p={r.prime}: {problem}"
        return None

    def cycle_type():
        a = R.fix_count_sequence(R.CycleType(cycle_counts), horizon)
        ct = R.realize_cycle_type(a, horizon)
        return a, ct, R.explicit_permutation(ct)

    def check_cycle_type(result):
        a, ct, succ = result
        if ct.counts != {L: c for L, c in sorted(cycle_counts.items())}:
            return "realized cycle type differs from the seeded one"
        if not R.verify_realization(ct, a, horizon):
            return "verify_realization rejects the realized cycle type"
        if len(succ) != points or sorted(succ) != list(range(1, points + 1)):
            return "the successor array is not a permutation of the points"
        if helpers.permutation_power_fixed_counts(succ, horizon) != list(a.terms):
            return "the permutation's powers do not have the prefix's fixed-point counts"
        return None

    return [
        LibraryOp("second-term-sweep", second_term_sweep, check_sweep),
        LibraryOp("euler", euler, check_euler),
        LibraryOp("tau-beta-local", tau_beta, check_tau_beta),
        LibraryOp("irregular-primes", lambda: R.irregular_primes(irr), check_irregular),
        LibraryOp("stirling-multipliers", stirling, check_stirling),
        LibraryOp("everywhere-local", lambda: R.check_everywhere_local(R.fibonacci_like(local_c, local_N), local_N), check_everywhere),
        LibraryOp("cycle-type", cycle_type, check_cycle_type),
    ]


LIBRARY_OPS = {"power-sampling": power_sampling_ops, "classical-local": classical_local_ops}


def run_library_pass(ops: list[LibraryOp], tracer=None) -> tuple[Pacer, list[Outcome], list[object]]:
    """Run the operations back to back; results are checked afterwards."""
    outcomes, results = [], []
    pacer = Pacer()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        start = time.perf_counter()
        try:
            results.append(op.run())
            detail = ""
        except Exception as err:  # noqa: BLE001 - a crash is a failed operation
            results.append(err)
            detail = f"{type(err).__name__}: {err}"[:300]
        outcomes.append(Outcome(op.name, time.perf_counter() - start, ok=not detail, detail=detail))
        outcomes[-1].scaled_s = pacer.scale(outcomes[-1].seconds)
    return pacer, outcomes, results


def verify_library(ops: list[LibraryOp], outcomes: list[Outcome], results: list[object], pins: dict | None) -> None:
    """Check every result; mark failures on the outcomes in place."""
    for op, outcome, result in zip(ops, outcomes, results):
        if not outcome.ok:
            continue
        try:
            outcome.digest = oracles.digest(result)
            problem = op.check(result)
        except Exception as err:  # noqa: BLE001 - an unreadable result is a wrong one
            problem = f"unreadable result: {type(err).__name__}: {err}"[:300]
        if problem is None and pins is not None and pins["digests"][op.name] != outcome.digest:
            problem = "result differs from the pinned default-seed result"
        if problem:
            outcome.ok, outcome.detail = False, problem
