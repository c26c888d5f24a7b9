"""One pass of a library workload, or one traced pass of any workload, in a
fresh process.  run.py starts it; the result is one JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--trace]

The pass imports the package (that is its set-up), runs the workload's
operations back to back, and only then checks every result.  Its output
includes ``peak_rss_mb``, the process's peak resident set taken before the
checks start, so the checks do not count.  With ``--trace`` it first wraps
every public function of the package (see tracer.py), unwraps them after the
last operation, and adds the per-layer totals and the spans to its output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

import workloads
from tracer import Tracer


def layer_metrics(tracer: Tracer, mobius_before, mobius_after) -> dict[str, float]:
    totals = tracer.totals()
    hits = mobius_after.hits - mobius_before.hits
    lookups = hits + mobius_after.misses - mobius_before.misses
    derived = {
        "numtheory.mobius.hit_ratio": hits / lookups if lookups else 0.0,
        "realizability.dold_values": totals.get("realizability.dold_transform.calls", 0),
        "realizability.max_term_bits": totals.get("realizability.check_realizable.max_term_bits", 0),
    }
    return {
        name: derived.get(name, totals.get(name, 0))
        for name, _, _ in workloads.PER_LAYER
        if name != "trace.overhead_s"
    }


def run(workload: str, seed: int, workdir: Path, trace: bool, tiny: bool) -> dict:
    sys.path.insert(0, str(workloads.SRC))
    import realizable
    import realizable.cli

    helpers = workloads.load_helpers()
    pins = workloads.load_pins(workload, seed, tiny)
    tracer = Tracer(realizable) if trace else None
    mobius = realizable.numtheory.mobius
    mobius_before = mobius.cache_info()
    if tracer is not None:
        tracer.install()
    try:
        if workload == "cli-bfile":
            if tracer is None:
                raise SystemExit("untraced cli-bfile passes run one process per command (run.py)")
            params = workloads.cli_params(seed, tiny)
            pacer, outcomes, codes = workloads.run_cli_pass_inprocess(params, workdir, realizable.cli.main, tracer)
        else:
            ops = workloads.LIBRARY_OPS[workload](realizable, seed, tiny, helpers)
            pacer, outcomes, results = workloads.run_library_pass(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out: dict = {
        "wall_s": pacer.scaled,
        "raw_wall_s": pacer.raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["leftover_wrappers"] = tracer.leftover_wrappers()
        out["layers"] = layer_metrics(tracer, mobius_before, mobius.cache_info())
        out["spans"] = [asdict(s) for s in tracer.spans]
    if workload == "cli-bfile":
        workloads.verify_cli(params, seed, workdir, codes, outcomes, helpers, pins)
    else:
        workloads.verify_library(ops, outcomes, results, pins)
    out["ops"] = [asdict(o) for o in outcomes]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.workdir, args.trace, tiny=False)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
