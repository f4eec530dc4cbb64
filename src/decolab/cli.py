"""Command line front end.

Every subcommand renders ExperimentReports, as text, canonical JSON or
CSV.  Each experiment group runs the experiments that declare it in the
registry, in registry order:

* ledger          exact exponent checkpoints, scenario blocks, derivations
* geometry-audit  normals, angle distortion, Gram identities
* caps            cap lattice, rings, coloring, four-of-six selection
* tubes           volumes, overlaps, multiplicity
* phase           sextuple classifications
* shell           anisotropic box, polynomial bands
* probe           sampled-field L6 ratios (lam <= 256 at the default grid)
* ladder NAME     one experiment across a frequency ladder, rate fit

Flags can also be supplied through --config pointing at a flat JSON object
with keys lambda / seed / samples / format / out, each value checked as its
flag is; explicit flags win.  Exit
status is 0 when no verdict failed, 1 on failures, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import lab
from .errors import ConfigError, DecolabError

CONFIG_KEYS = ("lambda", "seed", "samples", "format", "out")
FORMATS = ("text", "json", "csv")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated frequency scales, e.g. 64,256")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None, help="write the output to a file")
    p.add_argument("--format", dest="fmt", default=None,
                   choices=FORMATS)
    p.add_argument("--config", default=None,
                   help="JSON file of flat flag defaults; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="desk-scale numerical audit of a six-wave decoupling "
                    "balance on the paraboloid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(exp.group for exp in lab.REGISTRY.values()
                              if exp.group is not None):
        p = sub.add_parser(name, help=f"run the {name} experiment group")
        _add_common(p)
    p = sub.add_parser("ladder", help="rate fit across a frequency ladder")
    p.add_argument("experiment", help="registered experiment name")
    _add_common(p)
    return parser


def _load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    for key, value in cfg.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        # each value as argparse checks its flag; a bool is no int here
        if ((key in ("seed", "samples") and type(value) is not int)
                or (key == "format" and value not in FORMATS)
                or (key == "out" and not isinstance(value, str))):
            raise ConfigError(f"invalid {key} {value!r}")
    return cfg


def _parse_lams(raw) -> list[float] | None:
    if raw is None:
        return None
    if isinstance(raw, (int, float)):
        return [float(raw)]
    if isinstance(raw, list):
        return [float(v) for v in raw]
    vals = [v for v in str(raw).split(",") if v.strip()]
    if not vals:
        return None
    return [float(v) for v in vals]


def _pick(flag_value, cfg: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _render(reports: list[lab.ExperimentReport], fmt: str) -> str:
    if fmt == "json":
        return lab.canonical_json({"reports": [r.to_dict() for r in reports]})
    if fmt == "csv":
        blocks = []
        for r in reports:
            if r.results.get("rows"):
                lam = "" if r.lam is None else f" lam={r.lam:g}"
                blocks.append(f"# {r.experiment}{lam}\n" + r.csv())
        if not blocks:
            return "# no tabular results in this selection\n"
        return "".join(blocks)
    return "\n".join(r.text() for r in reports)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"decolab: bad config: {exc}", file=sys.stderr)
        return 2

    seed = _pick(args.seed, cfg, "seed", lab.DEFAULT_SEED)
    samples = _pick(args.samples, cfg, "samples", None)
    fmt = _pick(args.fmt, cfg, "format", "text")
    out = _pick(args.out, cfg, "out", None)
    try:
        lams = _parse_lams(_pick(args.lam, cfg, "lambda", None))
    except ValueError as exc:
        print(f"decolab: bad --lambda: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "ladder":
            report = lab.run_ladder(args.experiment, lams=lams, seed=seed,
                                    samples=samples)
            reports = [report]
        else:
            # lam None runs at the registered default, or without a lam
            reports = [lab.run_experiment(name, lam, seed, samples)
                       for name, exp in lab.REGISTRY.items()
                       if exp.group == args.command
                       for lam in (lams if lams and exp.needs_lam else [None])]
    except lab.UnknownExperimentError as exc:
        print(f"decolab: unknown experiment {exc}", file=sys.stderr)
        return 2
    except (DecolabError, ValueError) as exc:
        print(f"decolab: {exc}", file=sys.stderr)
        return 2

    _emit(_render(reports, fmt), out)
    return 1 if any(r.has_fail for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
