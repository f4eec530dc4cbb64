"""Desk-scale numerical audit laboratory for a six-wave frequency balance.

Modules:

* scale: one frequency parameter, all derived lengths, exact exponents
* geometry: paraboloid normals, angles, Gram determinants
* caps: separated direction families on the sphere
* tubes: space-time tubes, volumes, overlap and multiplicity statistics
* overlap: the exact overlap of two tubes in the lam-free cell
* phase: sextuple resonance sums and their classifications
* shell: polynomial level-set bands in the rescaled unit box
* ledger: exact exponent bookkeeping with golden checkpoints
* lab: experiment registry, reports, ladders, the sampled-field probe
"""
from .scale import (DEFAULT_C0, LAMBDA_EXPONENTS, RationalExponent,
                    ScaleParams, derive, effective_lambda_exponent)
from .lab import (DEFAULT_SEED, LADDER_LAMS, PROBE_LAMS, ExperimentReport,
                  LadderFit, Verdict, decoupling_probe, experiment_names,
                  fit_slope, run_experiment, run_ladder)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_C0",
    "DEFAULT_SEED",
    "LADDER_LAMS",
    "PROBE_LAMS",
    "LAMBDA_EXPONENTS",
    "RationalExponent",
    "ScaleParams",
    "ExperimentReport",
    "LadderFit",
    "Verdict",
    "decoupling_probe",
    "derive",
    "effective_lambda_exponent",
    "experiment_names",
    "fit_slope",
    "run_experiment",
    "run_ladder",
    "__version__",
]
