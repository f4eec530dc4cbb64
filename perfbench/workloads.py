"""The benchmark's workloads: fixed operation lists whose only input is the seed.

An operation is one call into decolab's public API: a registered experiment
(``lab.run_experiment``) or a ladder (``lab.run_ladder``).  Every report an
operation returns is rendered the way the CLI prints it (canonical JSON,
text, and CSV where the report has rows) and digested by its canonical JSON.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from decolab import lab

WORKLOADS = ("registry", "ladders", "sextuples")

#: sextuples: (experiment, samples) at each lam.  Sized for a pass of a few
#: seconds; the two lams differ in alpha, which moves the early exits of
#: tp_dichotomy and select_separated.
SEXTUPLE_OPS = (("phase-coverage", 300), ("paired-identities", 1200),
                ("select-four", 300))
SEXTUPLE_LAMS = (256.0, 4096.0)


@dataclass(frozen=True)
class Op:
    kind: str                 # "exp" (one experiment) or "ladder"
    name: str
    seed: int
    lam: float | None = None  # None: the registered default
    samples: int | None = None

    def run(self) -> lab.ExperimentReport:
        if self.kind == "ladder":
            return lab.run_ladder(self.name, seed=self.seed,
                                  samples=self.samples)
        return lab.run_experiment(self.name, self.lam, self.seed, self.samples)

    @property
    def units(self) -> int:
        """Operations counted toward attempted/failed: a ladder counts rungs."""
        if self.kind == "ladder":
            return len(lab.REGISTRY[self.name].ladder_lams)
        return 1


def operations(workload: str, seed: int) -> tuple[Op, ...]:
    """The operations of one pass of ``workload``."""
    if workload == "registry":
        return tuple(Op("exp", name, seed)
                     for name in lab.experiment_names())
    if workload == "ladders":
        return tuple(Op("ladder", name, seed)
                     for name, exp in lab.REGISTRY.items()
                     if exp.ladder_metric is not None)
    if workload == "sextuples":
        return tuple(Op("exp", name, seed, lam, samples)
                     for lam in SEXTUPLE_LAMS
                     for name, samples in SEXTUPLE_OPS)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def report_key(report: lab.ExperimentReport) -> str:
    """Stable digest name: the experiment, plus its lam when it has one."""
    if report.lam is None:
        return report.experiment
    return f"{report.experiment}@{report.lam:g}"


def render(report: lab.ExperimentReport) -> str:
    """Render the three CLI formats; return the canonical JSON's sha256."""
    canonical = report.canonical_json()
    report.text()
    if report.results.get("rows"):
        report.csv()
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def failing_units(op: Op, report: lab.ExperimentReport) -> int:
    """Units of ``op`` whose verdicts failed (a ladder reports per rung)."""
    if op.kind == "ladder":
        return min(op.units, int(report.results["per_lam_verdict_failures"]))
    return int(report.has_fail)
