"""Self time by span name, read from a spans file a traced run wrote.

    python3 perfbench/spanreport.py perfbench/out/spans-registry-seed7.json
    python3 perfbench/spanreport.py perfbench/out/spans-ladders-seed7.json \\
        --under lab.ladder.cap-lattice --each caps.build_lattice

``--under NAME`` keeps only spans nested inside a span called NAME;
``--each NAME`` also lists every span called NAME with its own duration,
in call order (for a ladder, one line per rung).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Span, self_times  # noqa: E402


def _inside(spans: list[Span], i: int, name: str) -> bool:
    while i >= 0:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans_file")
    ap.add_argument("--under", default=None)
    ap.add_argument("--each", default=None)
    args = ap.parse_args(argv)
    with open(args.spans_file) as fh:
        spans = [Span(*row) for row in json.load(fh)]
    own = self_times(spans)
    keep = [i for i in range(len(spans))
            if args.under is None or _inside(spans, i, args.under)]
    table: dict[str, list] = {}
    for i in keep:
        row = table.setdefault(spans[i].name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += spans[i].end - spans[i].start
        row[2] += own[i]
    print(f"{'span':40s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}")
    for name, (calls, total, self_s) in sorted(table.items(),
                                               key=lambda kv: -kv[1][2]):
        print(f"{name:40s} {calls:7d} {total:9.4f} {self_s:9.4f}")
    if args.each:
        print(f"\n{args.each}, each call:")
        for i in keep:
            if spans[i].name == args.each:
                print(f"  {spans[i].end - spans[i].start:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
