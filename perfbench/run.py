"""decolab benchmark: end-to-end and per-layer timings of one workload.

    python3 perfbench/run.py --workload registry --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each pass runs in a fresh interpreter (``passrun.py``), so no cache outlives
a pass, as none outlives a ``decolab`` command.  Passes repeat until the
next one would overrun ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics.  The last line of stdout is the JSON result;
the run record, report digests and spans go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("registry", "ladders", "sextuples")
DEFAULT_SEED = 7          # decolab.lab.DEFAULT_SEED
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_SUFFIXES = (".calls", ".samples", ".points", ".caps", ".macs")

#: interpreter start, import, one trivial experiment: what every call pays
SETUP_CODE = ("import decolab\nfrom decolab import lab\n"
              "lab.run_experiment('scale-table')\n")
SETUP_STARTS = 7
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _child(args: list[str]) -> str:
    """Run a fresh interpreter to completion; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *args], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "decolab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    """Stamp for the result; the first child start also compiles bytecode."""
    if not (SRC / "decolab" / "__init__.py").is_file():
        raise BenchError(f"no decolab source under {SRC}")
    env = _last_json(_child([str(BENCH / "envinfo.py")]))
    if not Path(env["decolab_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"decolab imported from {env['decolab_file']}, "
                         f"not from {SRC}")
    env.update(git_commit=_git_commit(), source_sha256=_source_digest())
    return env


def time_setup() -> float:
    t0 = time.perf_counter()
    _child(["-c", SETUP_CODE])
    return time.perf_counter() - t0


def run_passes(workload: str, seed: int, seconds: float, trace: bool
               ) -> tuple[list[dict], list[float]]:
    """Passes until the next would overrun ``seconds``, and set-up times.

    Untraced, a set-up start precedes every pass (topped up to
    ``SETUP_STARTS`` at the end), so that set-up samples the same stretch
    of machine time as the passes.  Traced, untraced and traced passes
    alternate, so that their difference is the tracing overhead.
    """
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    passes: list[dict] = []
    setup: list[float] = []
    t0 = time.perf_counter()
    while True:
        if not trace:
            setup.append(time_setup())
        traced = trace and len(passes) % 2 == 1
        args = [str(BENCH / "passrun.py"), "--workload", workload,
                "--seed", str(seed)]
        if traced:
            args += ["--spans", str(spans)]
        p = _last_json(_child(args))
        p["traced"] = traced
        passes.append(p)
        elapsed = time.perf_counter() - t0
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while not trace and len(setup) < SETUP_STARTS:
        setup.append(time_setup())
    return passes, setup


def check(passes: list[dict]) -> tuple[int, int, bool, list[str], dict]:
    """attempted, failed, sound, failure notes, and the reports' digests.

    An operation fails when it raised, returned a FAIL verdict, or gave a
    report digest other than the first pass's (traced passes included).
    The run is sound when nothing raised and every digest repeated; a FAIL
    verdict is a measured outcome of the seed and leaves it sound.
    """
    attempted = failed = 0
    sound = True
    notes: list[str] = []
    first = {}
    for p in passes:
        for op in p["ops"]:
            first.update({k: v for k, v in op["digests"].items()
                          if k not in first})
    for i, p in enumerate(passes):
        for op in p["ops"]:
            bad = op["failing_units"]
            if op["error"]:
                sound = False
                notes.append(f"pass {i} {op['op']} raised:\n{op['error']}")
            elif bad:
                notes.append(f"pass {i} {op['op']}: {bad} FAIL verdict units")
            if any(first[k] != v for k, v in op["digests"].items()):
                sound = False
                notes.append(f"pass {i} {op['op']}: digest differs from "
                             f"pass 0")
                bad = op["units"]
            attempted += op["units"]
            failed += bad
    return attempted, failed, sound, notes, dict(sorted(first.items()))


def _median(values) -> float:
    return float(statistics.median(values))


def traced_metrics(passes: list[dict], notes: list[str]
                   ) -> tuple[dict, bool]:
    """Per-layer values of a traced run, and whether its counts repeated.

    Times are medians over the traced passes; counts must be equal in
    every traced pass and are taken from the first.
    """
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = traced[0]["layers"]
    counts = [n for n in first if n.endswith(COUNT_SUFFIXES)]
    moved = sorted({n for p in traced for n in counts
                    if p["layers"][n] != first[n]})
    if moved:
        notes.append(f"counts differ between traced passes: {moved}")
    values = {n: first[n] if n in counts
              else _median(p["layers"][n] for p in traced) for n in first}
    values["trace.overhead_s"] = (_median(p["wall_s"] for p in traced)
                                  - _median(untraced))
    values["trace.layer_self_share"] = _median(
        sum(v for n, v in p["layers"].items() if n.endswith(".self_s"))
        / p["wall_s"] for p in traced)
    return values, not moved


def summarize(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up starts, passes, checks, metrics."""
    env = environment()
    OUT.mkdir(exist_ok=True)
    passes, setup = run_passes(workload, seed, seconds, trace)
    attempted, failed, correct, notes, digests = check(passes)
    if trace:
        values, counts_repeat = traced_metrics(passes, notes)
        correct = correct and counts_repeat
        metrics = {n: {"value": v, "unit": _layer_unit(n)}
                   for n, v in values.items()}
    else:
        values = {"wall_s": _median(p["wall_s"] for p in passes),
                  "setup_s": _median(setup),
                  # per-pass peaks are bimodal on ladders (allocator
                  # layout, not demand), so the least of them is reported
                  "peak_rss_mb": min(p["peak_rss_mb"] for p in passes)}
        metrics = {n: {"value": v, "unit": END_TO_END[n]}
                   for n, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "setup_s": setup,
              "passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb",
                                            "traced")} for p in passes],
              "notes": notes, "digests": digests, "result": result}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    (OUT / f"digests-{workload}-seed{seed}.json").write_text(
        json.dumps(digests, indent=1) + "\n")
    _print_summary(record)
    return result


def _layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name == "trace.layer_self_share":
        return "share"
    return "s"


def _print_summary(record: dict) -> None:
    res = record["result"]
    walls = [p["wall_s"] for p in record["passes"]]
    print(f"{record['workload']} seed {record['seed']}: {len(walls)} passes "
          f"({'traced' if record['trace'] else 'untraced'}), "
          f"correct={res['correct']}")
    for note in record["notes"]:
        print(f"  ! {note}")
    share = res["failed"] / res["attempted"]
    print(f"  failed_share {share:.4g} ({res['failed']} of "
          f"{res['attempted']} operations)")
    if record["trace"]:
        m = res["metrics"]
        timed = sorted((n for n in m if n.endswith(".self_s")),
                       key=lambda n: -m[n]["value"])
        for n in ["trace.overhead_s", "trace.layer_self_share", *timed[:12]]:
            print(f"  {n:40s} {m[n]['value']:.4f} {m[n]['unit']}")
        return
    for n, m in res["metrics"].items():
        how = {"wall_s": f"median of {len(walls)} passes",
               "setup_s": f"median of {len(record['setup_s'])} starts",
               "peak_rss_mb": "least peak over passes"}[n]
        print(f"  {n:12s} {m['value']:.4f} {m['unit']} ({how})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: summarize(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
