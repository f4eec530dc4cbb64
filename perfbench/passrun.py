"""One timed pass of one workload, in the interpreter it was started in.

    python3 perfbench/passrun.py --workload registry --seed 7 [--spans FILE]

Prints one JSON line: the pass's wall time (import excluded), its peak RSS,
and per operation the report digests, errors and failing verdict units.
With ``--spans FILE`` the pass runs traced: the line also carries the
per-layer metrics, and the spans are written to FILE after the pass.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback

import spans
import workloads
from decolab import lab


def _untraced(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once; collect digests and failures."""
    span = _untraced if tracer is None else tracer.span
    results = []
    t0 = time.perf_counter()
    for op in ops:
        entry = {"op": op.name, "units": op.units, "failing_units": 0,
                 "digests": {}, "error": None}
        try:
            with span(f"lab.{op.kind}.{op.name}"):
                report = op.run()
            with span("lab.render"):
                digest = workloads.render(report)
            entry["digests"][workloads.report_key(report)] = digest
            entry["failing_units"] = workloads.failing_units(op, report)
        except Exception:  # one failing operation must not end the pass
            entry["error"] = traceback.format_exc(limit=3)
            entry["failing_units"] = op.units
        results.append(entry)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ops": results,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=lab.DEFAULT_SEED)
    ap.add_argument("--spans", default=None,
                    help="trace the pass and write its spans here")
    args = ap.parse_args(argv)
    ops = workloads.operations(args.workload, args.seed)
    if args.spans is None:
        out = run_pass(ops)
    else:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            out = run_pass(ops, tracer)
        out["layers"] = spans.layer_metrics(tracer, spans.metric_names())
        tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
