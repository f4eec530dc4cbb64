"""Experiment harness: reports, the experiment registry, scale ladders.

Every experiment is declared once, by the @experiment decorator on its
body: a deterministic function of (lam, seed, samples) whose results and
verdicts the harness wraps in an ExperimentReport.  Reports carry two
kinds of verdicts:

* PASS / FAIL (``_ok``) for exact identities, closed-form oracles and
  deterministic grids, each decided on a value no draw can move,
* OBSERVATIONAL (``_obs``) for measured quantities compared against claimed
  rates, and for the z of a Monte Carlo audit of a value the report gives
  exactly; ``_audit`` gives one estimate's z and the detail that names it.

Canonical report JSON is byte-stable: keys are sorted, floats print by
repr, and the measured wall time is nulled out (it is the one field a
re-run cannot reproduce; the human-readable text format still shows it).
"""
from __future__ import annotations

import contextlib
import ctypes
import json
import math
import textwrap
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import caps, geometry, ledger, overlap, phase, shell, tubes
from .errors import ConfigError, UnknownExperimentError
from .geometry import blockwise
from .rng import jittered_stack, keyed_rng, unit_vectors
from .scale import (LAMBDA_EXPONENTS, ScaleParams, derive,
                    effective_lambda_exponent)

DEFAULT_SEED = 7
DEFAULT_LAM = 256.0

#: the dyadic frequency ladder used by the rate experiments
LADDER_LAMS = tuple(float(2 ** k) for k in range(6, 13))

#: default ladder for the sampled-field probe; the probe itself runs to
#: lam 256 at the default grid, and --lambda reaches the higher rungs
PROBE_LAMS = (4.0, 8.0, 16.0, 32.0, 64.0)

#: probe grid points per axis, per sqrt(lam)
PROBE_GRID_FACTOR = 6

#: grid columns per probe GEMM block, in order of radius: the working set is
#: O(n_caps * block), and each block multiplies only the rows its columns'
#: ball levels reach.  A multiple of 4, whole micro-tiles on the Haswell,
#: SkylakeX, Sandybridge and Prescott zgemm kernels; blocks of 8 to 128
#: give the same bits at lam 4 to 64
_PROBE_BLOCK = 32

#: largest probe working set decoupling_probe accepts, in bytes
PROBE_MAX_BYTES = 1 << 30

#: most samples an experiment accepts: that many of the largest per-sample
#: draw, a generic sextuple replicate of six normal 3-vectors and six radii
#: (24 floats), fill PROBE_MAX_BYTES
MAX_SAMPLES = PROBE_MAX_BYTES // (24 * 8)

#: text reports wrap result lines at this many characters
TEXT_WIDTH = 120

PASS = "PASS"
FAIL = "FAIL"
OBSERVATIONAL = "OBSERVATIONAL"


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str
    detail: str = ""


def _ok(name: str, cond: bool, detail: str = "") -> Verdict:
    return Verdict(name, PASS if cond else FAIL, detail)


def _obs(name: str, detail: str) -> Verdict:
    return Verdict(name, OBSERVATIONAL, detail)


def _audit(estimate: float, stderr: float,
           target: float) -> tuple[float | None, str]:
    """Standard errors from ``target`` to ``estimate``, and a detail line
    naming them.  The z is None (JSON null) at zero error, where no finite
    number is right."""
    z = (estimate - target) / stderr if stderr > 0 else None
    return z, "z undefined at zero stderr" if z is None else f"z = {z:.3f}"


def _jsonify(obj):
    """Conservative conversion to JSON-serializable values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        return _jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r} into a report")


def canonical_json(doc) -> str:
    """``doc`` as sorted, indented JSON; a NaN or infinity raises, since
    strict JSON has neither."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    lam: float | None
    seed: int
    params: dict
    results: dict
    verdicts: tuple[Verdict, ...]
    wall_time_s: float | None = None

    @property
    def has_fail(self) -> bool:
        return any(v.status == FAIL for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "lam": self.lam,
            "seed": self.seed,
            "params": _jsonify(self.params),
            "results": _jsonify(self.results),
            "verdicts": [
                {"name": v.name, "status": v.status, "detail": v.detail}
                for v in self.verdicts
            ],
            # deliberately nulled: canonical reports are byte-reproducible
            "wall_time_s": None,
        }

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        if self.lam is not None:
            lines.append(f"lam: {self.lam:g}")
        lines.append(f"seed: {self.seed}")
        for k in sorted(self.params):
            lines.append(f"param {k}: {self.params[k]}")
        for k in sorted(self.results):
            v = self.results[k]
            if k == "rows" and isinstance(v, list):
                lines.append(f"rows: {len(v)} entries")
                continue
            lines.extend(_text_lines(k, _jsonify(v)))
        for v in self.verdicts:
            detail = f"  ({v.detail})" if v.detail else ""
            lines.append(f"[{v.status}] {v.name}{detail}")
        if self.wall_time_s is not None:
            lines.append(f"wall time: {self.wall_time_s:.3f} s (not part of "
                         "the canonical report)")
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list[dict]:
        rows = self.results.get("rows")
        if not rows:
            raise ConfigError(f"experiment {self.experiment} has no row table")
        return [_jsonify(r) for r in rows]

    def csv(self) -> str:
        rows = self.csv_rows()
        cols = list(rows[0].keys())
        out = [cols] + [[_csv_cell(r.get(c)) for c in cols] for r in rows]
        return "".join(",".join(line) + "\n" for line in out)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.canonical_json())


def _text_lines(key: str, value) -> list[str]:
    """``key: value`` text lines, one per leaf of a nested result.

    Dicts flatten to dotted keys (``scenario_totals.main.lam``), and so do
    lists that hold dicts or lists, by index; lists of scalars stay inline.
    A leaf longer than TEXT_WIDTH wraps onto indented continuation lines.
    """
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and any(isinstance(v, (dict, list))
                                         for v in value):
        items = enumerate(value)
    else:
        line = f"{key}: {value}"
        if len(line) <= TEXT_WIDTH:
            return [line]
        return textwrap.wrap(line, TEXT_WIDTH, subsequent_indent="    ",
                             break_long_words=False, break_on_hyphens=False)
    return [line for k, v in items for line in _text_lines(f"{key}.{k}", v)]


def _csv_cell(v) -> str:
    return "" if v is None else str(v)    # str of a float is its repr


# ---------------------------------------------------------------------------
# ladder fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderFit:
    slope: float
    intercept: float
    n_points: int
    max_log_residual: float


def fit_slope(lams, values) -> LadderFit:
    """Least-squares slope of log(value) against log(lam), over at least
    three distinct lams."""
    x = np.asarray(lams, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(set(x.tolist())) < 3:
        raise ConfigError("ladder fit needs >= 3 aligned points at "
                          "distinct lams")
    if np.any(y <= 0) or np.any(x <= 0):
        raise ConfigError("ladder fit needs positive scales and values")
    # closed-form least squares over correctly rounded sums
    lx, ly = np.log(x), np.log(y)
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    slope = math.fsum((lx - mx) * (ly - my)) / math.fsum((lx - mx) ** 2)
    intercept = my - slope * mx
    resid = ly - (slope * lx + intercept)
    return LadderFit(slope=float(slope), intercept=float(intercept),
                     n_points=int(x.shape[0]),
                     max_log_residual=float(np.max(np.abs(resid))))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    name: str
    fn: Callable
    group: str | None
    needs_lam: bool
    default_lam: float
    default_samples: int
    min_samples: int
    ladder_metric: str | None
    ladder_lams: tuple[float, ...]
    params: dict
    summary: str


REGISTRY: dict[str, Experiment] = {}


def experiment(name: str, *, group: str | None = None, samples: int = 0,
               min_samples: int | None = None, ladder: str | None = None,
               lam: float = DEFAULT_LAM, ladder_lams=LADDER_LAMS,
               needs_lam: bool = True, params: dict | None = None):
    """Register a body mapping a Run to (results, verdicts), in file order.

    ``group`` names the CLI subcommand that runs it; ``min_samples`` is the
    fewest samples its verdicts can rest on (default 1 if it samples, else
    0); ``params`` are constants its reports record; the docstring's first
    line is its summary.
    """
    if min_samples is None:
        min_samples = 1 if samples > 0 else 0

    def register(fn: Callable) -> Callable:
        REGISTRY[name] = Experiment(
            name=name, fn=fn, group=group, needs_lam=needs_lam,
            default_lam=lam, default_samples=samples,
            min_samples=min_samples, ladder_metric=ladder,
            ladder_lams=tuple(ladder_lams), params=dict(params or {}),
            summary=fn.__doc__.strip().splitlines()[0])
        return fn
    return register


@dataclass(frozen=True)
class Run:
    """An experiment body's inputs, and the scale derived from lam once."""
    name: str
    lam: float | None
    seed: int
    samples: int
    scale: ScaleParams | None

    def rng(self, label: str | None = None) -> np.random.Generator:
        """Fresh stream keyed by (seed, label or the name, lam): call once."""
        return keyed_rng(self.seed, label or self.name, repr(float(self.lam)))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@experiment("scale-table")
def _exp_scale_table(run):
    """derived lengths against their closed forms"""
    s, lam = run.scale, run.lam
    dev_alpha = abs(s.alpha - s.c0 * lam ** -0.625) / s.alpha
    dev_height = abs(2.0 * s.t_half - lam ** -1.5) / (2.0 * s.t_half)
    dev_d = abs(s.D ** 12 - lam) / lam
    exact_xhalf = s.x_half == 0.5 * s.rho
    results = {
        "snapshot": s.snapshot(),
        "exponents": {k: str(v) for k, v in LAMBDA_EXPONENTS.items()},
        "alpha_rel_dev": dev_alpha,
        "cell_height_rel_dev": dev_height,
        "d_twelfth_power_rel_dev": dev_d,
    }
    verdicts = (
        _ok("alpha_closed_form", dev_alpha <= 1e-12, f"rel dev {dev_alpha:.2e}"),
        _ok("x_half_is_half_rho", exact_xhalf, "exact float equality"),
        _ok("cell_height", dev_height <= 1e-12, f"rel dev {dev_height:.2e}"),
        _ok("d_twelfth_power", dev_d <= 1e-12, f"rel dev {dev_d:.2e}"),
    )
    return results, verdicts


@experiment("ledger-goldens", group="ledger", needs_lam=False)
def _exp_ledger_goldens(run):
    """re-derive every exponent checkpoint"""
    rows = ledger.checkpoint_table()
    table = [
        {
            "name": r.name,
            "derived_lam": str(r.derived_lam),
            "derived_d": "" if r.derived_d is None else str(r.derived_d),
            "golden_lam": str(r.golden_lam),
            "golden_d": "" if r.golden_d is None else str(r.golden_d),
            "match": r.match,
        }
        for r in rows
    ]
    totals = {}
    for name, sc in ledger.scenarios().items():
        lam_exp, d_exp = ledger.sum_exponents(sc)
        totals[name] = {
            "lam": str(lam_exp),
            "d": str(d_exp),
            "effective_lam": effective_lambda_exponent(lam_exp, d_exp),
            "driving": sc.driving,
            "blocks": [asdict(b) for b in sc.blocks],
        }
    mismatched = [r.name for r in rows if not r.match]
    n_match = len(rows) - len(mismatched)
    results = {
        "rows": table,
        "scenario_totals": totals,
        "n_checkpoints": len(rows),
        "n_matching": n_match,
        "epsilon_policy": ledger.EPSILON_POLICY,
        "unused_exponents": dict(ledger.UNUSED_EXPONENTS),
        "kernel_derivation": asdict(ledger.kernel_derivation(6, 6)),
        "narrow_derivation": asdict(ledger.narrow_derivation(2)),
    }
    detail = f"{n_match}/{len(rows)} rows match"
    if mismatched:
        detail += "; mismatched: " + ", ".join(mismatched)
    verdicts = (_ok("all_checkpoints_match", not mismatched, detail),)
    return results, verdicts


@experiment("geometry-residual", group="geometry-audit", samples=4096,
            ladder="mean_residual")
def _exp_geometry_residual(run):
    """normal vs its large-frequency limit"""
    # normal = k asymptotic_normal exactly, k = 2 lam / sqrt(1 + 4 lam^2), so
    # the residual (1 - k) |a| = sqrt(1 + u) - 1 at every direction; the
    # samples, one BLOCK_ROWS block by default, only audit normal_residual
    lam = run.lam
    (res,) = blockwise(lambda v: (geometry.normal_residual(lam * v),),
                       unit_vectors(run.rng(), run.samples))
    u = 1.0 / (4.0 * lam * lam)
    closed = u / (math.sqrt(1.0 + u) + 1.0)   # sqrt(1+u) - 1, stable form
    # in eps/2, first order: normal and asymptotic_normal round each
    # component by at most 5 and 3.5 of it, their difference by 8.5 of |a|
    # = 1 + closed; |xi| is off lam by 4.5, which moves closed by 9 of it;
    # the norm and the closed form round by 3 and 5 of it.  With closed
    # <= 0.031 at lam >= 2, that is under 5 eps in all
    worst = float(np.max(np.abs(res - closed))) / (5.0 * np.finfo(float).eps)
    results = {"mean_residual": closed, "max_gap_over_bound": worst,
               "times_eight_lam_sq": closed * 8.0 * lam * lam}
    verdicts = (
        _ok("matches_closed_form", worst <= 1.0, f"worst gap {worst:.3f} of "
            f"its rounding bound, {run.samples} directions"),
        _obs("second_order_size",
             f"residual * 8 lam^2 = {closed * 8 * lam * lam:.8f}"),
    )
    return results, verdicts


@experiment("bilipschitz", group="geometry-audit", samples=4096,
            ladder="max_ratio_fixed")
def _exp_bilipschitz(run):
    """normal-map angle distortion on the sphere of one radius"""
    # the results are exact; the samples, one BLOCK_ROWS block by default,
    # only audit the kernel against the profile
    lam, rng = run.lam, run.rng()
    # the exact range: the profile falls from its limit at 0 to its value at pi
    lo, hi = geometry.bilipschitz_profile(lam, np.array([math.pi, 0.0]))

    def audit(u, v):
        xi, eta = lam * u, lam * v
        theta = geometry.angle_between(xi, eta)
        gap = np.abs(geometry.bilipschitz_ratio(xi, eta)
                     - geometry.bilipschitz_profile(lam, theta))
        return (gap / geometry.profile_bound(theta),)
    worst = float(np.max(blockwise(audit, unit_vectors(rng, run.samples),
                                   unit_vectors(rng, run.samples))[0]))
    # the free-radius supremum is unbounded, so it is null, not sampled
    results = {"min_ratio_fixed": float(lo), "max_ratio_fixed": float(hi),
               "max_ratio_band": None}
    verdicts = (
        # [lo, hi] lies in [1/2, 1) for every lam >= 1/2, so this cannot fail
        _obs("fixed_radius_in_band",
             f"exact range [{lo:.10f}, {hi:.10f}] inside [1/2, 2]"),
        _ok("sampled_ratios_match_profile", worst <= 1.0,
            f"worst gap {worst:.3f} of its rounding bound, {run.samples} "
            "pairs"),
        _obs("free_radius_range", "sup unbounded (null): parallel "
             "directions at two radii have distinct normals"),
    )
    return results, verdicts


@experiment("gram-identity", group="geometry-audit", samples=50_000)
def _exp_gram_identity(run):
    """cosine-form Gram determinant vs brute determinant"""
    s, lam, samples = run.scale, run.lam, run.samples
    rng = run.rng()

    def gram_gap(v):
        closed = geometry.gram_det3(v[:, 0], v[:, 1], v[:, 2])
        brute = geometry.gram_det(v[:, 0], v[:, 1], v[:, 2])
        return np.abs(closed - brute), closed

    # generic unit 4-vectors, dropped before the clustered draw
    (gap,) = blockwise(lambda v: gram_gap(v)[:1], unit_vectors(
        rng, 3 * samples, 4).reshape(samples, 3, 4))
    diff_generic = float(np.max(gap))
    # nearly parallel normals of r-clustered frequencies (tiny wedges)
    gap, closed_c = blockwise(
        lambda d: gram_gap(geometry.normal(
            lam * d / geometry.norm(d)[..., np.newaxis])),
        jittered_stack(rng, samples, 3, s.r))
    diff_clustered = float(np.max(gap))
    worst = max(diff_generic, diff_clustered)
    results = {
        "max_abs_diff_generic": diff_generic,
        "max_abs_diff_clustered": diff_clustered,
        "min_gram_clustered": float(np.min(closed_c)),
    }
    verdicts = (
        _ok("cosine_form_equals_det", worst <= 1e-12,
            f"worst abs diff {worst:.2e} over {2 * samples} triples"),
    )
    return results, verdicts


@experiment("broad3-identity", group="geometry-audit", samples=50_000)
def _exp_broad3_identity(run):
    """geometric-mean bound for the minimal amplitude triple"""
    rng = run.rng()
    mags = rng.normal(size=(run.samples, 6))
    np.exp(mags, out=mags)

    def bound(mags):
        mt = geometry.min_triple(mags)
        geo = np.prod(mags, axis=1) ** (1.0 / 6.0)
        return mt <= geo * (1.0 + 1e-12), geo / mt

    ok_rows, margins = blockwise(bound, mags)
    margin = float(np.min(margins))
    # the functional stays finite and positive on random normal sextuples
    check = min(200, run.samples)
    dirs = unit_vectors(rng, 6 * check, 4).reshape(check, 6, 4)
    vals = geometry.broad3(mags[:check], dirs)
    finite = bool(np.all(np.isfinite(vals) & (vals > 0)))
    results = {
        "min_margin": margin,
        "n_functional_checks": check,
        "functional_min": float(np.min(vals)),
        "functional_max": float(np.max(vals)),
    }
    verdicts = (
        _ok("min_triple_leq_geometric_mean", bool(np.all(ok_rows)),
            f"min margin {margin:.6f} over {run.samples} draws"),
        _ok("functional_finite_positive", finite,
            f"{check} sextuples evaluated"),
    )
    return results, verdicts


@experiment("mixed-minor", group="geometry-audit", samples=20_000,
            ladder="max_abs_det")
def _exp_mixed_minor(run):
    """clustered 4-column minors with one defect column"""
    # the minors are closed form (geometry.defect_minor); the first
    # BLOCK_ROWS clusters audit the Laplace kernel and the wedge against it
    lam, eps = run.lam, np.finfo(float).eps
    d = jittered_stack(run.rng(), run.samples, 4, run.scale.r)
    d /= geometry.norm(d)[..., np.newaxis]
    (det,) = blockwise(lambda b: (geometry.defect_minor(
        lam, *b.transpose(1, 0, 2)),), d)
    dirs = d[:geometry.BLOCK_ROWS].transpose(1, 0, 2)
    a1, a2, a3, a4 = (geometry.asymptotic_normal(lam * v) for v in dirs)
    rho4 = geometry.normal_defect(lam * dirs[3])
    kernel, closed = geometry.mixed_minor4(a1, a2, a3, rho4), det[:len(a1)]
    # wedge from the minors, not a Gram matrix of dot products, which
    # loses the tiny clustered wedges
    wedge = np.sqrt(geometry.gram_det(a1, a2, a3))
    p3, n4 = math.prod(map(geometry.norm, (a1, a2, a3))), geometry.norm(rho4)
    # Hadamard, |det| <= wedge |rho4|, up to the kernel's 30 eps P and the
    # wedge's 42 eps P3 (both derived in test_geometry), P = P3 |rho4|,
    # rounded up to 80 for the norms and the bound's own rounding
    over_bound = float(np.max(kernel / (wedge * n4 + 80.0 * eps * p3 * n4)))
    # the kernel against the closed form, in eps, first order: the Laplace
    # kernel 30 P; a1..a3 off their ideal (-d_i, 1/(2 lam)) by 8u each and
    # rho4 by 16u along a4, 20 P by Hadamard; rho4's subtraction rounds by
    # 8.5u |a4| in any direction, which det weighs by the wedge (itself
    # within 42 eps P3); orient3d's 21 eps of its edges times a scale under
    # 1/(16 lam^3); the closed form's own 7u
    edges = math.prod(geometry.norm(v - dirs[0]) for v in dirs[1:])
    gap = float(np.max(np.abs(kernel - closed) / (eps * (
        50.0 * p3 * n4 + 5.0 * geometry.norm(a4) * (wedge + 42.0 * eps * p3)
        + 2.0 * edges / lam ** 3 + 4.0 * closed))))
    results = {
        "max_abs_det": float(np.max(det)),
        "mean_abs_det": float(np.mean(det)),
        "max_det_over_bound": over_bound,
        "max_gap_over_bound": gap,
        "det_times_lam_10_3": float(np.max(det) * lam ** (10.0 / 3.0)),
    }
    verdicts = (
        _ok("hadamard_inequality", over_bound <= 1.0,
            f"max det/bound = {over_bound:.6f}, {len(a1)} clusters"),
        _ok("kernel_matches_closed_form", gap <= 1.0, f"worst gap {gap:.3f} "
            f"of its rounding bound, {len(a1)} clusters"),
        _obs("clustered_minor_size",
             f"max |det| * lam^(10/3) = "
             f"{results['det_times_lam_10_3']:.3e}"),
    )
    return results, verdicts


@experiment("cap-lattice", group="caps", samples=20_000, ladder="n_caps")
def _exp_cap_lattice(run):
    """separated cap family: separation, covering, count"""
    s, lam, samples = run.scale, run.lam, run.samples
    fam = caps.build_lattice(s)
    n = len(fam)
    sep = caps.min_separation(fam)
    probes = unit_vectors(run.rng("cap-lattice-probes"), samples)
    cov = caps.covering_probe(fam, probes)
    lo, hi = lam ** (4.0 / 3.0), 16.0 * lam ** (4.0 / 3.0)
    results = {
        "n_caps": n,
        "min_separation": sep,
        "separation_over_r": sep / s.r,
        "covering_radius_probe": cov,
        "covering_over_r": cov / s.r,
        "count_window": [lo, hi],
    }
    verdicts = (
        _ok("pairwise_separated", sep >= s.r,
            f"min angle / r = {sep / s.r:.4f}"),
        _ok("covering_within_2r", cov <= 2.0 * s.r,
            f"probed covering / r = {cov / s.r:.4f} ({samples} probes)"),
        _ok("count_in_window", lo <= n <= hi,
            f"{n} caps vs [{lo:.0f}, {hi:.0f}]"),
    )
    return results, verdicts


@experiment("annulus-partition", group="caps")
def _exp_annulus_partition(run):
    """thin angular rings partition the family"""
    fam = caps.build_lattice(run.scale)
    n = len(fam)
    indices = sorted({0, int(run.rng().integers(n))})
    partition_ok = all(int(caps.ring_histogram(fam, idx).sum()) == n - 1
                       for idx in indices)
    results = {
        "n_caps": n,
        "center_indices": indices,
    }
    verdicts = (
        _ok("rings_partition_family", partition_ok,
            f"histogram sums equal n-1 = {n - 1}"),
    )
    return results, verdicts


# a conflict edge needs two directions, and each direction past the axis
# tilts less than alpha (tilt uniform in [0, 3 alpha)) with probability 1/3,
# so at 20 directions P(no conflict edge) <= (2/3)^19 ~ 4.5e-4
@experiment("greedy-coloring", group="caps", samples=64, min_samples=20)
def _exp_greedy_coloring(run):
    """first-fit coloring of a sub-alpha cluster"""
    s, samples = run.scale, run.samples
    rng = run.rng()
    # a synthetic sub-alpha cluster: the lattice itself is r-separated with
    # r >> alpha, so its conflict graph is empty and proves nothing
    dirs = caps.clustered_dirs(rng, unit_vectors(rng, 1)[0], samples,
                               3.0 * s.alpha)
    fam = caps.CapFamily(scale=s, centers=dirs)
    pairs = caps.conflict_pairs(fam)
    colors = caps.greedy_color(pairs, len(fam))
    n_colors = int(colors.max(initial=-1)) + 1
    deg = np.bincount(pairs.ravel(), minlength=len(fam))
    proper = all(int(colors[i]) != int(colors[j]) for i, j in pairs)
    max_deg = int(deg.max(initial=0))
    results = {
        "n_dirs": len(fam),
        "n_conflict_pairs": int(pairs.shape[0]),
        "max_degree": max_deg,
        "n_colors": n_colors,
    }
    verdicts = (
        _ok("proper_coloring", proper,
            f"{pairs.shape[0]} conflict edges checked"),
        _ok("first_fit_bound", n_colors <= max_deg + 1,
            f"{n_colors} colors vs degree bound {max_deg + 1}"),
        _ok("nontrivial_graph", pairs.shape[0] > 0,
            "cluster produced conflict edges"),
    )
    return results, verdicts


@experiment("select-four", group="caps", samples=200)
def _exp_select_four(run):
    """four separated directions out of six"""
    s, seed, samples = run.scale, run.seed, run.samples
    rows = []
    ok_recheck = True
    found = {}
    for kind in ("generic", "clustered5"):
        d = phase.directions(phase.sample_sextuple(s, seed, samples, kind))
        res = caps.select_separated(d, s.alpha)
        found[kind] = int(np.count_nonzero(res.found))
        # re-verify every returned subset, all six of its pairs at once
        hit = np.flatnonzero(res.found)[:, np.newaxis]
        sub = res.subset[res.found]
        i, j = np.triu_indices(4, 1)
        ang = geometry.angle_between(d[hit, sub[:, i]], d[hit, sub[:, j]])
        ok_recheck &= bool(np.all(ang >= s.alpha))
        for rep, subset, dense in zip(range(samples), res.subset.tolist(),
                                      res.dense_pairs.tolist()):
            rows.append({
                "kind": kind,
                "replicate": rep,
                "found": subset[0] >= 0,
                "subset": "-".join(map(str, subset)) if subset[0] >= 0
                else "",
                "dense_pairs": dense,
            })
    generic_found = found["generic"]
    cluster_blocked = samples - found["clustered5"]
    results = {
        "rows": rows,
        "generic_found": generic_found,
        "cluster_blocked": cluster_blocked,
        "n_per_kind": samples,
    }
    verdicts = (
        _ok("selected_subsets_separated", ok_recheck,
            "all returned 4-subsets re-verified pairwise >= alpha"),
        _ok("generic_always_selectable", generic_found == samples,
            f"{generic_found}/{samples} generic draws"),
        _ok("five_cluster_blocks_selection", cluster_blocked == samples,
            f"{cluster_blocked}/{samples} clustered draws blocked"),
    )
    return results, verdicts


@experiment("tube-volume", group="tubes", samples=4096,
            min_samples=tubes.MIN_SAMPLES, ladder="volume")
def _exp_tube_volume(run):
    """exact tube volume in the cell, with Monte Carlo audits"""
    # the volumes are exact; the samples, one BLOCK_ROWS block by default,
    # only audit mc_volume against them.  Every tube in the lam-free cell is
    # one set up to a rotation, so one fixed axis stands for them all
    s, lam = run.scale, run.lam
    axis = lam * np.array([0.0, 0.0, 1.0])
    results, audits = {}, []
    for truncated, key in ((False, "volume"), (True, "volume_truncated")):
        exact = overlap.cell_volume(truncated) / lam ** 3
        est = tubes.mc_volume(tubes.Tube(s, axis, truncated), run.samples,
                              run.seed)
        z, detail = _audit(est.value, est.stderr, exact)
        results[key] = exact
        results[f"{key}_audit"] = {"estimate": est.value,
                                   "stderr": est.stderr, "z": z}
        audits.append(_obs(f"{key}_audit", f"mc_volume {detail}, "
                           f"{run.samples} draws"))
    volume, env = results["volume"], tubes.cylinder_volume(s)
    results.update(envelope_volume=env, hit_fraction=volume / env,
                   volume_times_lam3=volume * lam ** 3)
    verdicts = (
        _ok("inside_envelope", 0.0 < volume <= env,
            f"hit fraction {volume / env:.4f}"),
        _ok("truncation_shrinks", results["volume_truncated"] <= volume,
            "core removal cannot grow the volume"),
        _obs("normalized_volume", f"volume * lam^3 = {volume * lam ** 3:.4f}"),
        *audits,
    )
    return results, verdicts


#: radii per ray of nested-ball's midpoint grid on [0, rho]
NESTED_BALL_RADII = 512


@experiment("nested-ball", group="tubes", samples=4096,
            min_samples=tubes.MIN_SAMPLES)
def _exp_nested_ball(run):
    """static tube against its closed-form volume"""
    # decided on a midpoint grid: along the 26 directions to the neighbours
    # of a cube, at 4 midpoint times in (-t_half, t_half), the static tube
    # must hold a prefix of the radii, ending within one step h of x_half.
    # An edge R within h of x_half gives a volume within
    # (4/3) pi ((x_half + h)^3 - x_half^3) 2 t_half of the closed form.  The
    # samples, one BLOCK_ROWS block by default, only audit mc_volume
    s, n = run.scale, NESTED_BALL_RADII
    tube = tubes.Tube(scale=s, xi=np.zeros(3))
    exact = tubes.nested_ball_volume(s)
    step = s.rho / n
    dirs = np.array([d for d in np.ndindex(3, 3, 3) if d != (1, 1, 1)]) - 1.0
    dirs /= geometry.norm(dirs)[:, np.newaxis]
    times = ((np.arange(4) + 0.5) / 2.0 - 1.0) * s.t_half
    radii = (np.arange(n) + 0.5) * step
    x = np.tile(dirs, (len(times), 1))[:, np.newaxis, :] \
        * radii[:, np.newaxis]
    inside = tubes.membership(tube, np.repeat(times, len(dirs))[:, np.newaxis],
                              x)
    count = np.count_nonzero(inside, axis=1)
    edge = count * step
    volume = (4.0 / 3.0) * math.pi * edge ** 3 * (2.0 * s.t_half)
    gap = float(np.max(np.abs(volume - exact)))
    bound = ((4.0 / 3.0) * math.pi * ((s.x_half + step) ** 3 - s.x_half ** 3)
             * (2.0 * s.t_half))
    ok = (np.array_equal(inside, np.arange(n) < count[:, np.newaxis])
          and float(np.max(np.abs(edge - s.x_half))) <= step
          and gap <= bound)
    est = tubes.mc_volume(tube, run.samples, run.seed)
    z, detail = _audit(est.value, est.stderr, exact)
    results = {"exact": exact, "volume_gap": gap, "volume_bound": bound,
               "grid_step": step, "rays": len(inside),
               "audit": {"estimate": est.value, "stderr": est.stderr, "z": z},
               "expected_hit_fraction": 0.125}
    verdicts = (
        _ok("matches_closed_form", ok,
            f"{len(inside)} rays of {n} radii end within one step of x_half;"
            f" volume gap {gap:.2e} <= {bound:.2e}"),
        _obs("mc_volume_audit", f"mc_volume {detail}, {run.samples} draws"),
    )
    return results, verdicts


@experiment("boundary-layer", group="tubes")
def _exp_boundary_layer(run):
    """exact 1/8 time-layer fraction of the cell"""
    # the layer |t| <= h, |x| <= 2 rho of the cell |t| <= t_half,
    # |x| <= x_half takes h / t_half of its times and min(1, 2 rho /
    # x_half)^3 of its ball; nothing is drawn.  Two pows, a quotient and a
    # product, each within one rounding, bound the gap to 4 eps
    s = run.scale
    height = tubes.BOUNDARY_LAYER_HALF_HEIGHT * s.lam ** -1.5
    spatial = min(1.0, 2.0 * s.rho / s.x_half) ** 3
    fraction = height / s.t_half * spatial
    exact = tubes.BOUNDARY_LAYER_FRACTION
    gap, bound = abs(fraction - exact), 4.0 * np.finfo(float).eps * exact
    results = {"fraction": fraction, "exact": exact,
               "layer_half_height": height, "spatial_fraction": spatial}
    return results, (_ok("matches_exact_fraction", gap <= bound,
                         f"gap {gap:.1e} <= 4 eps = {bound:.1e}"),)


@experiment("pair-overlap", group="tubes", samples=4096,
            min_samples=tubes.MIN_SAMPLES)
def _exp_pair_overlap(run):
    """pairwise tube overlap against the analytic bound"""
    # each overlap is exact, overlap_profile(delta) / lam^3; the samples,
    # one BLOCK_ROWS block per pair by default, only audit mc_pair_overlap
    s, lam = run.scale, run.lam
    fam = caps.build_lattice(s)
    ang = fam.angles_from(0)
    ang[0] = math.inf                      # exclude the anchor itself
    picks, target = [], s.r
    while target < 2.0:
        picks.append(int(np.argmin(np.abs(ang - target))))
        target *= 8.0
    ang[0] = -math.inf
    picks.append(int(np.argmax(ang)))      # the cap farthest from cap 0
    deltas = ang[picks]
    exact = overlap.overlap_profile(deltas) / lam ** 3
    anchor = tubes.tube_for_cap(fam, 0)
    rows, details = [], []
    for j, delta, ex in zip(picks, deltas.tolist(), exact.tolist()):
        est = tubes.mc_pair_overlap(anchor, tubes.tube_for_cap(fam, j),
                                    run.samples, run.seed)
        bound = tubes.pair_overlap_bound(s, delta)
        z, detail = _audit(est.value, est.stderr, ex)
        details.append(detail)
        rows.append({"lam": lam, "pair": f"0-{j}", "delta": delta,
                     "exact": ex, "bound": bound, "ratio": ex / bound,
                     "estimate": est.value, "stderr": est.stderr, "z": z})
    max_ratio = max(r["ratio"] for r in rows)
    b_delta = tubes.pair_overlap_bound(s, 1.0)
    b_time = s.rho ** 3 * s.lam ** -1.5
    branch_dev = abs(b_delta - b_time) / b_time
    results = {"rows": rows, "max_ratio": max_ratio, "C": tubes.PAIR_OVERLAP_C,
               "branch_dev_at_delta_1": branch_dev, "n_pairs": len(rows)}
    verdicts = (
        _ok("exact_within_bound", max_ratio <= tubes.PAIR_OVERLAP_C,
            f"{len(rows)} separations up to delta {max(deltas):.4f}: max "
            f"exact/bound {max_ratio:.4f}, C = pi f(0) = "
            f"{tubes.PAIR_OVERLAP_C:.4f}"),
        _obs("mc_pair_overlap_audit",
             f"{'; '.join(details)}, {run.samples} draws per pair"),
        _ok("branch_continuity", branch_dev <= 1e-12,
            f"relative branch gap at delta=1: {branch_dev:.2e}"),
    )
    return results, verdicts


@experiment("l2-sum", group="tubes")
def _exp_l2_sum(run):
    """overlap sum over a family, dyadic bands"""
    s, lam = run.scale, run.lam
    fam = caps.build_lattice(s)
    if len(fam) > 8000:
        theta = 2.0 * math.sqrt(2000.0 / len(fam))
        fam = fam.restrict_to_cone(fam.centers[0], theta)
    res = tubes.l2_sum(fam)
    rows = []
    for j in np.flatnonzero(res.pair_counts).tolist():
        count, delta = int(res.pair_counts[j]), (2.0 ** j) * s.alpha
        mean = float(res.band_sums[j]) / count
        bound = s.rho ** 4 / (lam * delta)      # at the band's left edge
        rows.append({
            "lam": lam,
            "pair": f"band-{j}",
            "delta": delta,
            "estimate": mean,
            "error_bound": float(res.band_errors[j]) / count,
            "bound": bound,
            "ratio": mean / bound,
            "pair_count": count,
        })
    results = {
        "rows": rows,
        "n_caps": len(fam),
        "diagonal": res.diagonal,
        "off_diagonal": res.off_diagonal,
        "total": res.total,
        "error_bound": res.error_bound,
        "off_over_diagonal": res.off_diagonal / res.diagonal,
        "tube_volume": res.tube_volume,
    }
    verdicts = (
        _ok("total_dominates_diagonal", res.total >= res.diagonal > 0.0,
            f"off/diag = {res.off_diagonal / res.diagonal:.4f}"),
        _obs("overlap_sum",
             f"S = {res.total:.6e} +- {res.error_bound:.1e} over "
             f"{len(fam)} caps"),
    )
    return results, verdicts


@experiment("multiplicity", group="tubes", samples=20_000,
            min_samples=tubes.MIN_SAMPLES)
def _exp_multiplicity(run):
    """covering multiplicity over a dense family's union"""
    s, seed, samples = run.scale, run.seed, run.samples
    rng = run.rng("multiplicity-family")
    n_caps = 24
    dirs = caps.clustered_dirs(rng, unit_vectors(rng, 1)[0], n_caps,
                               0.5 * s.alpha)
    fam = caps.CapFamily(scale=s, centers=dirs)
    res = tubes.multiplicity_experiment(fam, samples, seed)
    # fat-tube fact: at t = 0 every tube of the family contains the whole
    # admissible x-ball, so the multiplicity there is the full family size
    x0 = np.asarray([0.35 * s.rho, 0.0, 0.0])
    m_center = int(tubes.multiplicity_counts(
        s, fam.xi(), True, np.asarray([0.0]), x0[np.newaxis, :])[0])
    amps = rng.normal(size=n_caps) + 1j * rng.normal(size=n_caps)
    cs = tubes.pointwise_cs_check(s, fam.xi(), True, amps, 0.0, x0)
    results = {
        "n_caps": n_caps,
        "threshold": res.threshold,
        "fraction_below": res.fraction_below,
        "union_ratio": res.union_ratio,
        "m_min": res.m_min,
        "m_max": res.m_max,
        "m_mean_weighted": res.m_mean_weighted,
        "m_at_center": m_center,
        "cs_lhs": cs.lhs,
        "cs_rhs": cs.rhs,
        "cs_multiplicity": cs.multiplicity,
    }
    verdicts = (
        _ok("center_multiplicity_full", m_center == n_caps,
            f"M(0, x0) = {m_center} of {n_caps}"),
        _ok("pointwise_cauchy_schwarz", cs.ok,
            f"lhs {cs.lhs:.6e} <= rhs {cs.rhs:.6e}"),
        _obs("sub_threshold_mass",
             f"fraction with M < {res.threshold:.3f}: {res.fraction_below}"),
        _obs("union_ratio", f"D * mean(1/M) = {res.union_ratio:.6f}"),
    )
    return results, verdicts


@experiment("phase-coverage", group="phase", samples=100)
def _exp_phase_coverage(run):
    """sextuple classifications across sampler kinds"""
    s, seed, samples = run.scale, run.seed, run.samples
    rng = run.rng("phase-family")
    dense_fam = caps.CapFamily(scale=s, centers=caps.clustered_dirs(
        rng, unit_vectors(rng, 1)[0], 16, 0.5 * s.alpha))
    rows = []
    paired_exact = True
    cluster_narrow = True
    for kind in phase.SAMPLER_KINDS:
        xi = phase.sample_sextuple(s, seed, samples, kind)
        m6 = phase.mu6(xi)
        tp = phase.tp_dichotomy(xi, s)
        rn = phase.rn_classify(xi, s, None)
        if kind == "paired":
            paired_exact = (not np.any(m6) and not np.any(phase.grad_xprime(xi))
                            and bool(np.all(tp.label == "paired")))
        if kind == "clustered5":
            cluster_narrow = bool(np.all(rn.label == "narrow"))
        for rep, mu, basket, label, witness, rn_label, sizes in zip(
                range(samples), m6.tolist(),
                phase.classify_basket(m6, s).tolist(), tp.label.tolist(),
                tp.witness.tolist(), rn.label.tolist(),
                rn.cluster_sizes.tolist()):
            rows.append({
                "seed": seed,
                "kind": kind,
                "replicate": rep,
                "mu6": mu,
                "basket": basket,
                "label": label,
                "witness": "-".join(map(str, witness)) if witness[0] >= 0
                else "",
                "rn_label": rn_label,
                "cluster_sizes": "/".join(str(n) for n in sizes if n),
            })
    # a dense family flips the first branch of the dichotomy
    rn_dense = phase.rn_classify(phase.sample_sextuple(s, seed, [0]), s,
                                 dense_fam)
    robust_seen = rn_dense.label[0] == "robust"
    results = {
        "rows": rows,
        "label_counts": Counter(f"{r['kind']}:{r['label']}" for r in rows),
        "rn_label_counts": Counter(f"{r['kind']}:{r['rn_label']}"
                                   for r in rows),
        "dense_family_max_count": rn_dense.max_alpha_count,
    }
    verdicts = (
        _ok("paired_draws_exact", paired_exact,
            "mu6 == 0.0, grad == 0, label 'paired' on every paired draw"),
        _ok("five_cluster_is_narrow", cluster_narrow,
            f"{samples} clustered draws"),
        _ok("dense_family_is_robust", robust_seen,
            f"max alpha-cap count {rn_dense.max_alpha_count} "
            f"> {rn_dense.density_threshold:.3f}"),
    )
    return results, verdicts


@experiment("paired-identities", group="phase", samples=2_000)
def _exp_paired_identities(run):
    """exact vanishing and permutation invariance of the block sums"""
    s, seed, samples = run.scale, run.seed, run.samples
    rng = run.rng()
    paired = phase.sample_sextuple(s, seed, samples, "paired")
    exact_zero = (not np.any(phase.mu6(paired))
                  and not np.any(phase.grad_xprime(paired)))
    gen = phase.sample_sextuple(s, seed, samples, "generic")
    base = phase.mu6(gen)
    # per draw a within-block shuffle of each block (the draws of 2 * samples
    # successive rng.permutation(3) calls); then the block swap
    order = rng.permuted(np.tile(np.arange(3), (2 * samples, 1)), axis=1)
    order = order.reshape(samples, 6) + [0, 0, 0, 3, 3, 3]
    shuffled = np.take_along_axis(gen, order[:, :, np.newaxis], axis=1)
    swapped = gen[:, [3, 4, 5, 0, 1, 2]]
    perm_invariant = (np.array_equal(phase.mu6(shuffled), base)
                      and np.array_equal(phase.mu6(swapped), base))
    results = {
        "n_paired": samples,
        "n_permutation_checks": 2 * samples,
    }
    verdicts = (
        _ok("paired_sums_vanish", exact_zero,
            f"mu6 and both gradient components exactly 0.0, {samples} draws"),
        _ok("mu6_permutation_invariant", perm_invariant,
            "within-block shuffles and block swap leave mu6 bit-identical"),
    )
    return results, verdicts


@experiment("anisotropic-roundtrip", group="shell", samples=50_000)
def _exp_anisotropic_roundtrip(run):
    """box-to-frequency scaling roundtrip and Jacobian"""
    s, lam, samples = run.scale, run.lam, run.samples
    pts = run.rng("anisotropic").uniform(-0.5, 0.5, size=(samples, 4))
    back = shell.anisotropic_inverse(s, shell.anisotropic_forward(s, pts))
    dev = float(np.max(np.abs(back - pts) / (1.0 + np.abs(pts))))
    jac = shell.jacobian(s)
    jac_prod = lam ** 1.5 * (lam ** 0.5) ** 3
    jac_dev = abs(jac - jac_prod) / jac
    results = {
        "max_roundtrip_dev": dev,
        "jacobian": jac,
        "jacobian_rel_dev": jac_dev,
    }
    verdicts = (
        _ok("roundtrip_identity", dev <= 1e-12, f"max rel dev {dev:.2e}"),
        _ok("jacobian_consistent", jac_dev <= 1e-12,
            f"lam^3 vs factor product: rel dev {jac_dev:.2e}"),
    )
    return results, verdicts


@experiment("hyperplane-shell", group="shell", samples=4096, min_samples=5)
def _exp_hyperplane_shell(run):
    """band of a hyperplane against the exact fraction"""
    # P = t - tau ignores x, so its band is a slab in t, and n midpoints in
    # t take its fraction to within 1/n; rounding at the two edges moves
    # at most one more point, so 2/n bounds the gap.  Nothing is drawn.  The
    # floor makes 2/n < 1/2 <= max(exact, 1 - exact), so the check can fail
    n, beta = run.samples, shell.band_width(run.scale, 1)
    pts = np.zeros((n, 4))
    pts[:, 0] = (np.arange(n) + 0.5) / n - 0.5
    rows = []
    for tau in (0.0, 0.3, 0.45):
        member = shell.band_membership(shell.hyperplane_poly(tau), pts, beta)
        fraction = np.count_nonzero(member) / n
        exact = shell.hyperplane_fraction_exact(beta, tau)
        rows.append({"lam": run.lam, "D": run.scale.D, "degree": 1,
                     "beta": beta, "tau": tau, "fraction": fraction,
                     "exact": exact, "gap": abs(fraction - exact)})
    worst = max(r["gap"] for r in rows)
    verdicts = (
        _ok("matches_exact_fraction", worst <= 2.0 / n,
            f"{len(rows)} offsets, worst gap {worst:.2e} <= 2/n = "
            f"{2.0 / n:.2e}, {n} midpoints in t"),
    )
    return {"rows": rows}, verdicts


@experiment("shell-ensemble", group="shell", samples=40_000)
def _exp_shell_ensemble(run):
    """band fractions for random low-degree polynomials"""
    s, seed, samples = run.scale, run.seed, run.samples
    rows = []
    mean_by_deg = {}
    sane = True
    for degree in range(1, shell.max_degree(s) + 1):
        ensemble = shell.ensemble_fractions(s, degree, 6, samples, seed)
        mean_by_deg[str(degree)] = float(np.mean([bf.value
                                                  for bf in ensemble]))
        for bf in ensemble:
            sane &= 0.0 <= bf.value <= 1.0
            rows.append({"lam": run.lam, "D": run.scale.D,
                         "degree": bf.degree, "beta": bf.beta,
                         "fraction": bf.value, "stderr": bf.stderr,
                         "fraction_times_D": bf.value * run.scale.D})
    results = {
        "rows": rows,
        "degree_cap": shell.max_degree(s),
        "mean_fraction_by_degree": mean_by_deg,
    }
    verdicts = (
        _ok("fractions_in_range", sane, f"{len(rows)} ensemble members"),
        _obs("band_occupancy",
             f"mean fraction by degree: {mean_by_deg}"),
    )
    return results, verdicts


# ---------------------------------------------------------------------------
# the desk decoupling probe
# ---------------------------------------------------------------------------

#: OpenBLAS's thread-count calls, {prefix}{get,set}_num_threads{suffix}, as
#: numpy 2's wheels, numpy 1's and a system OpenBLAS name them
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                   ("openblas_", ""))


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread inside the block; no-op for other BLAS.

    Each probe GEMM, at most about (1.5 nx, n) by (n, _PROBE_BLOCK), 72
    rows by 32 columns at lam 64, is too small to gain from threads, and a
    thread that waits for a busy core stalls it: on a 2-CPU host with the
    other core loaded, the lam-64 probe took 0.12 to 0.53 s threaded
    against 0.09 s on one thread.  Threads split the output, not the sums,
    but a split inside a micro-tile moves rows onto an edge kernel that
    rounds differently (Haswell's, at 78 rows), so one thread also keeps
    the probe's whole tiles whole.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    calls = [(getattr(lib, f"{pre}get_num_threads{suf}", None),
              getattr(lib, f"{pre}set_num_threads{suf}", None))
             for pre, suf in _OPENBLAS_NAMES]
    get, put = next((c for c in calls if all(c)), (lambda: 1, lambda k: k))
    was = get()
    put(1)
    try:
        yield
    finally:
        put(was)


@dataclass(frozen=True)
class ProbeResult:
    lam: float
    n_caps: int
    grid_per_axis: int
    # always 1 (t = 0 only); perfbench/spans.py counts probe MACs with it
    t_points: int
    n_points: int
    ratio_random: float
    ratio_focusing: float


def decoupling_probe(scale: ScaleParams, seed: int,
                     grid_factor: int = PROBE_GRID_FACTOR,
                     family: caps.CapFamily | None = None) -> ProbeResult:
    """Sampled L6 size of a random superposition of on-shell waves.

    The field is F(t, x) = sum over caps of a_n exp(i(t |xi_n|^2 + x.xi_n)).
    Every cap has |xi_n| = lam, so t |xi_n|^2 is one phase shared by all
    caps and |F| does not depend on t: the probe samples t = 0 only, on a
    midpoint grid over the unit spatial box (ball-masked).  The reference is
    the flat count (sum |a_n|^2)^1/2, exact for a single cap since each
    summand has constant modulus.

    The field is computed exactly, with no approximation: exp(i x.xi) is
    the product of one exponential per axis per cap, taken for x <= 0 and
    conjugated for x > 0.  Only the (x2, x3) columns inside the disk
    x2^2 + x3^2 <= 1/4 are formed, in order of radius, and both amplitude
    sets share one GEMM per block of _PROBE_BLOCK (32) columns.  The left
    factor has three rows per |x1| level, centre out: focusing at -x1,
    random at -x1 and at +x1.  A block multiplies only the levels its
    columns' ball reaches, and the focusing field at x1 > 0 is its x1 < 0
    half mirrored, since F(-x) = conj F(x) when every amplitude is one:
    about half the multiply-adds of the full cylinder, whose sums it
    equals bit for bit.  Each block gathers two (32, n_caps) complex
    factors, and the probe at lam 64 peaks at about 9 MiB.
    Refused, before the lattice is built, when the grid is at or under the
    field's Nyquist count lam/pi per axis, or when the working set would
    exceed PROBE_MAX_BYTES.
    """
    if grid_factor < 4:
        raise ConfigError("grid factor below 4 undersamples the field")
    n_axis = max(4, int(round(grid_factor * math.sqrt(scale.lam))))
    if n_axis * math.pi <= scale.lam:
        raise ConfigError(
            f"probe grid of {n_axis} points per axis is at or under the "
            f"Nyquist count lam/pi = {scale.lam / math.pi:.1f} at lam "
            f"{scale.lam:g}")
    # working set in bytes, an upper bound.  Complex: the per-axis
    # exponentials and the left factor (under 6 nx rows of n), one block of
    # _PROBE_BLOCK columns and its two gathers (3 rows of n per block
    # column).  Real: |F|^6 on at most 2 nx^3 points
    n_bound = caps.spiral_size(scale) if family is None else len(family)
    need = 16 * n_bound * (6 * n_axis + 3 * _PROBE_BLOCK) + 16 * n_axis ** 3
    if need > PROBE_MAX_BYTES:
        raise ConfigError(
            f"probe at lam {scale.lam:g} needs about {need / 2 ** 20:.0f} "
            f"MiB, over the {PROBE_MAX_BYTES / 2 ** 20:.0f} MiB it supports")
    if family is None:
        family = caps.build_lattice(scale)
    xis = family.xi()
    n = len(family)
    rng = keyed_rng(seed, "probe", repr(float(scale.lam)), n)
    amps = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))

    # exactly rounded midpoints, so ax[::-1] == -ax and each x1 > 0 row of
    # exp(i x.xi) is the conjugate of its mirror: half the exponentials
    ax = (2 * np.arange(n_axis) + 1 - n_axis) / (2 * n_axis)
    hn = (n_axis + 1) // 2                                  # x1 <= 0 rows
    e1, e2, e3 = (np.zeros((n_axis, n), dtype=complex) for _ in range(3))
    for e, xi in zip((e1, e2, e3), xis.T):
        np.multiply(ax[:hn, np.newaxis], xi, out=e[:hn].imag)
        np.exp(e[:hn], out=e[:hn])
        np.conjugate(e[n_axis - 1 - hn::-1], out=e[hn:])

    # the left factor by |x1| level, centre out, three rows a level:
    # focusing at -x1, random at -x1 and at +x1; dest is each row's row of
    # p6, random then focusing in grid order.  An odd grid's centre has its
    # random row twice, and an odd count of levels ends with the outermost
    # twice, so each GEMM below takes a multiple of 6 rows
    lev = np.arange(hn - 1, -1 - hn % 2, -1).clip(0)
    dest = np.stack((n_axis + lev, lev, n_axis - 1 - lev), axis=1).ravel()
    left = e1[dest % n_axis]                               # (~1.5 nx, n)
    del e1                                  # freed before the blocks
    np.multiply(left, amps, out=left, where=(dest < n_axis)[:, np.newaxis])

    # no point of the ball |x| <= 1/2 lies outside the disk columns; the
    # mask sums (x1^2 + x2^2) + x3^2 as a full-grid mask does, and p6[mask]
    # reads the ball in the same (x1, x2, x3) order, so np.mean is unchanged.
    # Sorted by radius, a block of columns needs only the left factor's
    # first rows: the levels of its most central column inside the ball
    sq = ax ** 2
    j2, j3 = np.nonzero(sq[:, np.newaxis] + sq <= 0.25)
    mask = sq[:, np.newaxis] + sq[j2] + sq[j3] <= 0.25     # (nx, ncol)
    levels = np.count_nonzero(mask[:hn], axis=0)
    order = np.argsort(sq[j2] + sq[j3], kind="stable")

    # each GEMM is a multiple of 6 rows by _PROBE_BLOCK columns (the last
    # block overlaps the one before), whole micro-tiles on each of those
    # kernels: an edge tile sums in another order, so a value would hang
    # on where its row and column fall
    ncol = j2.size
    p6 = np.empty((2 * n_axis, ncol))
    with _one_blas_thread():
        for lo in range(0, ncol, _PROBE_BLOCK):
            cols = order[max(0, min(lo, ncol - _PROBE_BLOCK)):
                         lo + _PROBE_BLOCK]
            k = 6 * ((levels[cols].max() + 1) // 2)
            block = e2[j2[cols]]
            block *= e3[j3[cols]]                            # (blk, n)
            field = left[:k] @ block.T                       # (k, blk)
            p6[dest[:k, np.newaxis], cols] = (
                field.real ** 2 + field.imag ** 2) ** 3
    # F(-x) = conj F(x) for the focusing field, and the ball columns in
    # reverse are the same columns reflected through the x1 axis
    focusing = p6[n_axis:]
    focusing[hn:] = focusing[n_axis - 1 - hn::-1, ::-1]
    ratio_random, ratio_focusing = (
        float(np.mean(p[mask])) ** (1.0 / 6.0) / math.sqrt(n)
        for p in (p6[:n_axis], p6[n_axis:]))
    return ProbeResult(lam=scale.lam, n_caps=n, grid_per_axis=n_axis,
                       t_points=1, n_points=int(np.count_nonzero(mask)),
                       ratio_random=ratio_random,
                       ratio_focusing=ratio_focusing)


@experiment("probe-single-cap", group="probe", lam=64.0,
            params={"grid_factor": PROBE_GRID_FACTOR})
def _exp_probe_single_cap(run):
    """one-cap sanity: sampled L6 ratio is exactly one"""
    s, seed = run.scale, run.seed
    one = caps.CapFamily(scale=s, centers=np.asarray([[0.0, 0.0, 1.0]]))
    res = decoupling_probe(s, seed, family=one)
    dev = max(abs(res.ratio_random - 1.0), abs(res.ratio_focusing - 1.0))
    results = {
        "ratio_random": res.ratio_random,
        "ratio_focusing": res.ratio_focusing,
        "max_dev_from_one": dev,
        "n_points": res.n_points,
    }
    verdicts = (
        _ok("single_cap_ratio_is_one", dev <= 1e-13,
            f"max |ratio - 1| = {dev:.2e}"),
    )
    return results, verdicts


@experiment("probe-curve", group="probe", lam=64.0, ladder="ratio_random",
            ladder_lams=PROBE_LAMS, params={"grid_factor": PROBE_GRID_FACTOR})
def _exp_probe_curve(run):
    """sampled L6 ratio of a full superposition"""
    s, seed = run.scale, run.seed
    res = decoupling_probe(s, seed)
    d_half = s.D ** 0.5
    results = {
        "n_caps": res.n_caps,
        "grid_per_axis": res.grid_per_axis,
        "n_points": res.n_points,
        "ratio_random": res.ratio_random,
        "ratio_focusing": res.ratio_focusing,
        "ratio_random_over_sqrt_d": res.ratio_random / d_half,
        "ratio_focusing_over_sqrt_d": res.ratio_focusing / d_half,
    }
    verdicts = (
        _obs("random_phase_ratio",
             f"{res.ratio_random:.4f} over {res.n_caps} caps"),
        _obs("focusing_ratio",
             f"{res.ratio_focusing:.4f}; / sqrt(D) = "
             f"{res.ratio_focusing / d_half:.4f}"),
    )
    return results, verdicts


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def experiment_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def _lookup(name: str) -> Experiment:
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name) from None


def _checked_samples(exp: Experiment, samples: int | None) -> int:
    """The samples ``exp`` runs with, checked before anything is drawn.

    Below the experiment's declared minimum no verdict rests on enough
    draws; above MAX_SAMPLES the largest per-sample draw would pass the
    1 GiB PROBE_MAX_BYTES.  An experiment that draws nothing by default runs
    with samples 0, whatever it was given.
    """
    n = int(samples if samples is not None else exp.default_samples)
    if n < exp.min_samples:
        raise ConfigError(
            f"{exp.name} needs samples >= {exp.min_samples}, got {n}")
    if n > MAX_SAMPLES:
        raise ConfigError(f"{exp.name} takes samples <= {MAX_SAMPLES} (a "
                          f"1 GiB draw bound), got {n}")
    return n if exp.default_samples else 0


def run_experiment(name: str, lam: float | None = None,
                   seed: int = DEFAULT_SEED, samples: int | None = None
                   ) -> ExperimentReport:
    """Run one registered experiment and stamp the measured wall time.

    The samples are checked (``_checked_samples``) before it runs, and an
    experiment that draws nothing records samples 0.
    """
    exp = _lookup(name)
    n = _checked_samples(exp, samples)
    lam = (float(lam if lam is not None else exp.default_lam)
           if exp.needs_lam else None)
    t0 = time.perf_counter()
    run = Run(name, lam, seed, n, None if lam is None else derive(lam))
    results, verdicts = exp.fn(run)
    return ExperimentReport(name, lam, seed, {"samples": n, **exp.params},
                            results, verdicts,
                            wall_time_s=time.perf_counter() - t0)


def run_ladder(name: str, lams=None, seed: int = DEFAULT_SEED,
               samples: int | None = None) -> ExperimentReport:
    """Run an experiment across a frequency ladder and fit the rate.

    The rungs, at least three distinct ones and each a valid lam, and the
    samples are checked before the first rung runs.
    """
    exp = _lookup(name)
    if exp.ladder_metric is None:
        raise ConfigError(f"experiment {name} declares no ladder metric")
    lams = tuple(exp.ladder_lams if lams is None else lams)
    if len(set(lams)) < 3:
        raise ConfigError(f"a ladder needs >= 3 rungs at distinct lams, got "
                          f"{sorted(set(lams))}")
    for lam in lams:
        derive(lam)
    _checked_samples(exp, samples)
    t0 = time.perf_counter()
    values = []
    failures = 0
    for lam in lams:
        rep = run_experiment(name, lam, seed, samples)
        failures += sum(1 for v in rep.verdicts if v.status == FAIL)
        values.append(float(rep.results[exp.ladder_metric]))
    rows = [{"lam": float(lam), exp.ladder_metric: val}
            for lam, val in zip(lams, values)]
    fit = fit_slope(lams, values)
    results = {
        "metric": exp.ladder_metric,
        "rows": rows,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_log_residual": fit.max_log_residual,
        "per_lam_verdict_failures": failures,
    }
    verdicts = (
        _ok("per_lam_experiments_clean", failures == 0,
            f"{failures} FAIL verdicts across {len(lams)} rungs"),
        _obs("fitted_slope", f"{fit.slope:.4f}"),
    )
    return ExperimentReport(
        experiment=f"ladder:{name}", lam=None, seed=seed,
        params={"lams": [float(x) for x in lams], "samples": samples},
        results=results, verdicts=verdicts,
        wall_time_s=time.perf_counter() - t0,
    )
