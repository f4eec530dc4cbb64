"""Experiment harness: reports, the experiment registry, scale ladders.

Every experiment is declared once, by the @experiment decorator on its
body: a deterministic function of (lam, seed, samples) whose results and
verdicts the harness wraps in an ExperimentReport.  Reports carry three
kinds of verdicts:

* PASS / FAIL for exact identities and closed-form oracles,
* PASS / FAIL marked ``statistical`` for Monte Carlo estimates held within
  Z_LIMIT standard errors of a target (``_stat``), which can fail by
  chance; ``_audit`` gives one estimate's z and the detail that names it,
* OBSERVATIONAL for measured quantities compared against claimed rates,
  and for the z of a Monte Carlo audit of a value the report gives exactly.

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

#: grid columns per probe GEMM block: the working set is O(n_caps * block).
#: The block could change the GEMM's rounding; under numpy 2.4's OpenBLAS
#: 0.3.31 blocks of 32, 64 and 128 give the same ratios at lam 4 to 256
_PROBE_BLOCK = 32

#: largest probe working set decoupling_probe accepts, in bytes
PROBE_MAX_BYTES = 1 << 30

#: most samples an experiment accepts: that many of the largest per-sample
#: draw, a generic sextuple replicate of six normal 3-vectors and six radii
#: (24 floats), fill PROBE_MAX_BYTES
MAX_SAMPLES = PROBE_MAX_BYTES // (24 * 8)

#: text reports wrap result lines at this many characters
TEXT_WIDTH = 120

#: a Monte Carlo estimate passes within this many standard errors
Z_LIMIT = 3.0

PASS = "PASS"
FAIL = "FAIL"
OBSERVATIONAL = "OBSERVATIONAL"


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str
    detail: str = ""
    statistical: bool = False     # a Monte Carlo test: it can fail by chance


def _ok(name: str, cond: bool, detail: str = "") -> Verdict:
    return Verdict(name, PASS if cond else FAIL, detail)


def _obs(name: str, detail: str) -> Verdict:
    return Verdict(name, OBSERVATIONAL, detail)


def _stat(name: str, estimate, stderr, target, side: str,
          detail: str) -> Verdict:
    """PASS when every estimate is within Z_LIMIT standard errors of its
    target: on both sides, or only above it (``side`` "both" or "upper")."""
    gap = np.subtract(estimate, target)
    if side == "both":
        gap = np.abs(gap)
    ok = np.all(gap <= Z_LIMIT * np.asarray(stderr))
    return Verdict(name, PASS if ok else FAIL, detail, statistical=True)


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


@experiment("geometry-residual", group="geometry-audit", samples=20_000,
            ladder="mean_residual")
def _exp_geometry_residual(run):
    """normal vs its large-frequency limit"""
    lam, samples = run.lam, run.samples
    (res,) = blockwise(lambda u: (geometry.normal_residual(lam * u),),
                       unit_vectors(run.rng(), samples))
    u = 1.0 / (4.0 * lam * lam)
    closed = u / (math.sqrt(1.0 + u) + 1.0)   # sqrt(1+u) - 1, stable form
    spread = float((res.max() - res.min()) / closed)
    mean_ratio = float(np.mean(res) / closed)
    # the defect norm itself bottoms out at float noise ~1e-16
    tol = max(1e-6, 1e-13 / closed)
    results = {
        "mean_residual": float(np.mean(res)),
        "closed_form": closed,
        "mean_over_closed": mean_ratio,
        "spread_over_closed": spread,
        "times_eight_lam_sq": closed * 8.0 * lam * lam,
    }
    verdicts = (
        _ok("direction_independent", spread <= tol,
            f"relative spread {spread:.2e} over {samples} directions"),
        _ok("matches_closed_form", abs(mean_ratio - 1.0) <= tol,
            f"mean/closed = {mean_ratio:.12f}"),
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
        _ok("fixed_radius_in_band", 0.5 <= lo and hi <= 2.0,
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
    s, lam, samples = run.scale, run.lam, run.samples

    def minors(d):
        dirs = d / geometry.norm(d)[..., np.newaxis]
        a1, a2, a3 = (geometry.asymptotic_normal(lam * dirs[:, m])
                      for m in range(3))
        xi4 = lam * dirs[:, 3]
        a4 = geometry.asymptotic_normal(xi4)
        rho4 = geometry.normal(xi4) - a4
        det = geometry.mixed_minor4(a1, a2, a3, rho4)
        # wedge from the minors, not the cosine closed form, which assumes
        # unit columns (these carry norm sqrt(1 + 1/(4 lam^2))), nor a Gram
        # matrix of dot products, which loses the tiny clustered wedges
        wedge = np.sqrt(geometry.gram_det(a1, a2, a3))
        bound = wedge * geometry.norm(rho4)
        # the defect points exactly against the large-frequency limit vector
        anti = math.pi - geometry.angle_between(rho4, a4)
        return (det, det <= bound * (1.0 + 1e-6) + 1e-18, np.abs(anti),
                (det + 1e-18) / (bound + 1e-18))

    det, under, anti, ratios = blockwise(
        minors, jittered_stack(run.rng(), samples, 4, s.r))
    hadamard = bool(np.all(under))
    max_anti = float(np.max(anti))
    ratio = float(np.max(ratios))
    results = {
        "max_abs_det": float(np.max(det)),
        "mean_abs_det": float(np.mean(det)),
        "max_det_over_bound": ratio,
        "max_antiparallel_dev": max_anti,
        "det_times_lam_10_3": float(np.max(det) * lam ** (10.0 / 3.0)),
    }
    verdicts = (
        _ok("hadamard_inequality", hadamard,
            f"max det/bound = {ratio:.6f}"),
        _ok("defect_antiparallel_to_limit", max_anti <= 1e-6,
            f"max deviation from pi: {max_anti:.2e} rad"),
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
        exact = float(overlap.overlap_profile(0.0, truncated)) / lam ** 3
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


@experiment("nested-ball", group="tubes", samples=200_000,
            min_samples=tubes.MIN_SAMPLES)
def _exp_nested_ball(run):
    """static tube against its closed-form volume"""
    s, seed, samples = run.scale, run.seed, run.samples
    tube = tubes.Tube(scale=s, xi=np.zeros(3))
    est = tubes.mc_volume(tube, samples, seed)
    exact = tubes.nested_ball_volume(s)
    z, detail = _audit(est.value, est.stderr, exact)
    results = {
        "estimate": est.value,
        "stderr": est.stderr,
        "exact": exact,
        "z_score": z,
        "expected_hit_fraction": 0.125,
    }
    return results, (_stat("matches_closed_form", est.value, est.stderr,
                           exact, "both", detail),)


@experiment("boundary-layer", group="tubes", samples=200_000,
            min_samples=tubes.MIN_SAMPLES)
def _exp_boundary_layer(run):
    """exact 1/8 time-layer fraction of the cell"""
    s, seed, samples = run.scale, run.seed, run.samples
    est = tubes.boundary_layer_mc(s, samples, seed)
    exact = tubes.BOUNDARY_LAYER_FRACTION
    z, detail = _audit(est.value, est.stderr, exact)
    results = {
        "estimate": est.value,
        "stderr": est.stderr,
        "exact": exact,
        "z_score": z,
    }
    return results, (_stat("matches_exact_fraction", est.value, est.stderr,
                           exact, "both", detail),)


@experiment("pair-overlap", group="tubes", samples=100_000,
            min_samples=tubes.MIN_SAMPLES)
def _exp_pair_overlap(run):
    """pairwise tube overlap against the analytic bound"""
    s, lam, seed, samples = run.scale, run.lam, run.seed, run.samples
    fam = caps.build_lattice(s)
    ang = fam.angles_from(0)
    ang[0] = math.inf                      # exclude the anchor itself
    rows = []
    target = s.r
    while target < 2.0:
        j = int(np.argmin(np.abs(ang - min(target, math.pi * 0.9))))
        delta = float(ang[j])
        est = tubes.mc_pair_overlap(tubes.tube_for_cap(fam, 0),
                                    tubes.tube_for_cap(fam, j),
                                    samples, seed)
        bound = tubes.pair_overlap_bound(s, delta)
        rows.append({
            "lam": lam,
            "pair": f"0-{j}",
            "delta": delta,
            "estimate": est.value,
            "stderr": est.stderr,
            "bound": bound,
            "ratio": est.value / bound,
        })
        target *= 8.0
    b_delta = tubes.pair_overlap_bound(s, 1.0)
    b_time = s.rho ** 3 * s.lam ** -1.5
    branch_dev = abs(b_delta - b_time) / b_time
    results = {
        "rows": rows,
        "branch_dev_at_delta_1": branch_dev,
        "n_pairs": len(rows),
    }
    verdicts = (
        _stat("estimates_below_bound", [r["estimate"] for r in rows],
              [r["stderr"] for r in rows], [r["bound"] for r in rows],
              "upper", f"{len(rows)} separations, all within {Z_LIMIT:g} "
              "sigma of the bound"),
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


def _band_row(run, bf: shell.BandFraction) -> dict:
    """The report row of one band fraction, as both shell experiments
    print it."""
    return {
        "lam": run.lam,
        "D": run.scale.D,
        "degree": bf.degree,
        "beta": bf.beta,
        "fraction": bf.value,
        "stderr": bf.stderr,
        "fraction_times_D": bf.value * run.scale.D,
    }


@experiment("hyperplane-shell", group="shell", samples=200_000)
def _exp_hyperplane_shell(run):
    """band of a hyperplane against the exact fraction"""
    s, seed, samples = run.scale, run.seed, run.samples
    rows = []
    for tau in (0.0, 0.3, 0.45):
        poly = shell.hyperplane_poly(tau)
        bf = shell.band_fraction(s, poly, samples, seed, tag=f"hyper-{tau}")
        exact = shell.hyperplane_fraction_exact(bf.beta, tau)
        z, _ = _audit(bf.value, bf.stderr, exact)
        rows.append({**_band_row(run, bf), "tau": tau, "exact": exact,
                     "z": z})
    results = {"rows": rows}
    verdicts = (
        _stat("matches_exact_fraction", [r["fraction"] for r in rows],
              [r["stderr"] for r in rows], [r["exact"] for r in rows], "both",
              f"{len(rows)} offsets, all within {Z_LIMIT:g} sigma of "
              "min(1, 2 beta)"),
    )
    return results, verdicts


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
            rows.append(_band_row(run, bf))
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

    Each probe GEMM, (2 nx, n) by (n, _PROBE_BLOCK), is too small to gain
    from threads, and a thread that waits for a busy core stalls it: on a
    2-CPU host with the other core loaded, the lam-64 probe took 0.12 to
    0.53 s threaded against 0.09 s on one thread.  Threads split the
    output, not the sums, so the values do not change.
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
    the product of one exponential per axis per cap, only the (x2, x3)
    columns inside the disk x2^2 + x3^2 <= 1/4 are formed, and both
    amplitude sets share one GEMM per block of _PROBE_BLOCK (32) columns.
    Each block gathers two (32, n_caps) complex factors, and the probe at
    lam 64 peaks at about 11 MiB.
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
    # working set in bytes.  Complex: the per-axis exponentials and the
    # stacked left factor with its temporary (6 nx rows of n), one block of
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
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n)

    ax = (np.arange(n_axis) + 0.5) / n_axis - 0.5
    e = 1j * (ax[:, np.newaxis] * xis.T[:, np.newaxis, :])
    e1, e2, e3 = np.exp(e, out=e)                           # (3, nx, n)
    left = np.concatenate((e1 * np.exp(1j * phases), e1))   # (2 nx, n)

    # no point of the ball |x| <= 1/2 lies outside the disk columns; the
    # mask sums (x1^2 + x2^2) + x3^2 as a full-grid mask does, and p6[mask]
    # reads the ball in the same (x1, x2, x3) order, so np.mean is unchanged
    sq = ax ** 2
    j2, j3 = np.nonzero(sq[:, np.newaxis] + sq <= 0.25)
    mask = sq[:, np.newaxis] + sq[j2] + sq[j3] <= 0.25     # (nx, ncol)

    p6 = np.empty((2 * n_axis, j2.size))
    with _one_blas_thread():
        for lo in range(0, j2.size, _PROBE_BLOCK):
            cols = slice(lo, lo + _PROBE_BLOCK)
            block = e2[j2[cols]]
            block *= e3[j3[cols]]                            # (blk, n)
            field = left @ block.T                           # (2 nx, blk)
            p6[:, cols] = (field.real ** 2 + field.imag ** 2) ** 3
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
