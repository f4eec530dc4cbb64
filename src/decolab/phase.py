"""Resonance bookkeeping for stacks of sextuples of on-shell frequencies.

A sextuple is two blocks of three frequency centers, each with modulus in
[lam/2, 2*lam]; a stack ``xi`` of n sextuples has shape (n, 6, 3) and every
kernel here works on the whole stack at once.  The time-resonance defect is

    mu6 = | sum_{m<=3} |xi_m|^2  -  sum_{m>3} |xi_m|^2 |

and the transverse gradient is the same signed block sum of the last two
frequency coordinates.  Both are computed with exact compensated summation
(math.fsum, one call per sextuple), so the advertised identities hold to the
last bit: mu6 and the gradient vanish identically when the second block is a
permutation of the first, and mu6 is invariant under within-block
permutations and block swap.

Two classifications act on each sextuple:

* paired / transversal / neither: search the six block pairings for angular
  and radial proximity, else ask for a large transverse gradient;
* robust / narrow / neither: high angular density in some alpha-cap of an
  active family, else five of six directions in one alpha-linkage cluster.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .caps import CapFamily, clustered_dirs, conflict_degrees
from .errors import ConfigError
from .geometry import angle_between, dot, norm
# keyed_rng is re-exported: replicate rep of sample_sextuple draws exactly
# keyed_rng(seed, "sextuple", kind, repr(lam), rep)
from .rng import keyed_rng, keyed_rngs, unit_vectors  # noqa: F401
from .scale import ScaleParams

#: the six block pairings, lexicographic: pairing p sends m to PAIRINGS[p][m]
PAIRINGS = tuple(itertools.permutations((3, 4, 5)))
_PAIRING_COLS = np.asarray(PAIRINGS) - 3

SAMPLER_KINDS = ("generic", "paired", "perturbed", "clustered5")

#: transversal gradient floor c1 = TP_C1_PER_C0 * c0 (times lam * alpha),
#: and the density threshold c_star * D of the robust branch
TP_C1_PER_C0 = 0.5
RN_C_STAR = 0.5


def _stack(xi: np.ndarray) -> np.ndarray:
    arr = np.asarray(xi, dtype=float)
    if arr.ndim != 3 or arr.shape[1:] != (6, 3):
        raise ConfigError(f"expected a stack of shape (n, 6, 3), got {arr.shape}")
    return arr


def check_shell(xi: np.ndarray, scale: ScaleParams) -> np.ndarray:
    """``xi`` as a float (n, 6, 3) stack, every modulus in [lam/2, 2*lam]."""
    arr = _stack(xi)
    mods = norm(arr)
    lam = scale.lam
    bad = np.argwhere(~((0.5 * lam <= mods) & (mods <= 2.0 * lam)))
    if bad.size:
        i, m = bad[0]
        raise ConfigError(f"|xi_{m}| = {mods[i, m]} of sextuple {i} outside "
                         f"the shell [{lam / 2}, {2 * lam}]")
    return arr


def moduli(xi: np.ndarray) -> np.ndarray:
    """|xi_m| of every center, shape (n, 6)."""
    return norm(_stack(xi))


def directions(xi: np.ndarray) -> np.ndarray:
    """Unit directions xi_m / |xi_m|, shape (n, 6, 3)."""
    arr = _stack(xi)
    return arr / norm(arr)[..., np.newaxis]


def _block_fsum(cols: np.ndarray) -> np.ndarray:
    """Exact sum of each row of first-block minus second-block terms."""
    signed = np.concatenate([cols[:, :3], -cols[:, 3:]], axis=1)
    return np.fromiter(map(math.fsum, signed.tolist()), dtype=float,
                       count=signed.shape[0])


def mu6(xi: np.ndarray) -> np.ndarray:
    """Time-resonance defect per sextuple; exact cancellation on paired
    blocks."""
    arr = _stack(xi)
    return np.abs(_block_fsum(dot(arr, arr)))


def classify_basket(mu: np.ndarray, scale: ScaleParams,
                    c: float = 1.0) -> np.ndarray:
    """'B_ge' where mu6 >= c * sqrt(lam) (boundary included), else 'B_lt'."""
    return np.where(np.asarray(mu) >= c * math.sqrt(scale.lam),
                    "B_ge", "B_lt")


def grad_xprime(xi: np.ndarray) -> np.ndarray:
    """Signed block sums of the transverse components, shape (n, 2)."""
    arr = _stack(xi)
    return np.stack([_block_fsum(arr[:, :, 1]), _block_fsum(arr[:, :, 2])],
                    axis=-1)


def transverse_dirs(xi: np.ndarray) -> np.ndarray:
    """u_m = xi'_m / |xi_m|: transverse parts scaled by the full modulus."""
    arr = _stack(xi)
    return arr[:, :, 1:3] / moduli(arr)[:, :, np.newaxis]


def _angle2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angles between 2-vectors (broadcast over leading axes).

    A zero vector is at angle 0 from a zero vector and pi from any other.
    The angle is math.atan2(|cross|, dot), the libm value, which numpy's
    SIMD arctan2 can miss by an ulp.
    """
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    ang = np.fromiter(map(math.atan2, np.abs(cross).ravel().tolist(),
                          dot.ravel().tolist()),
                      dtype=float, count=dot.size).reshape(dot.shape)
    zu = (u[..., 0] == 0.0) & (u[..., 1] == 0.0)
    zv = (v[..., 0] == 0.0) & (v[..., 1] == 0.0)
    return np.where(zu | zv, np.where(zu & zv, 0.0, math.pi), ang)


@dataclass(frozen=True)
class TPResult:
    label: np.ndarray               # (n,) paired|transversal|neither
    witness: np.ndarray             # (n, 3) block-2 image of (0, 1, 2); -1
    grad_norm: np.ndarray           # (n,)
    angular_threshold: float        # C * alpha
    radial_threshold: np.ndarray    # (n,) C * mu6 / lam
    grad_threshold: float           # c1 * lam * alpha


def tp_dichotomy(xi: np.ndarray, scale: ScaleParams,
                 C: float = 4.0) -> TPResult:
    """Paired / transversal / neither trichotomy for each sextuple.

    A block pairing m -> p[m] holds when, for m = 0, 1, 2, the transverse
    angle and the modulus gap to the partner are within C * alpha and
    C * mu6 / lam.  The first pairing that holds, in lexicographic order,
    is the witness.  Failing every pairing, a transverse gradient of at
    least c1 * lam * alpha, c1 = TP_C1_PER_C0 * c0, makes the sextuple
    transversal.
    """
    arr = _stack(xi)
    g = grad_xprime(arr)
    gnorm = np.fromiter(map(math.hypot, g[:, 0].tolist(), g[:, 1].tolist()),
                        dtype=float, count=g.shape[0])
    ang_thr = C * scale.alpha
    rad_thr = C * mu6(arr) / scale.lam
    grad_thr = TP_C1_PER_C0 * scale.c0 * scale.lam * scale.alpha
    mods = moduli(arr)
    u = transverse_dirs(arr)
    # (n, 3, 3) tables: block-1 index m against block-2 index k - 3
    close = ((_angle2(u[:, :3, np.newaxis], u[:, np.newaxis, 3:]) <= ang_thr)
             & (np.abs(mods[:, :3, np.newaxis] - mods[:, np.newaxis, 3:])
                <= rad_thr[:, np.newaxis, np.newaxis]))
    holds = (close[:, 0, _PAIRING_COLS[:, 0]]
             & close[:, 1, _PAIRING_COLS[:, 1]]
             & close[:, 2, _PAIRING_COLS[:, 2]])           # (n, 6)
    paired = holds.any(axis=1)
    witness = np.where(paired[:, np.newaxis],
                       np.asarray(PAIRINGS)[holds.argmax(axis=1)], -1)
    label = np.where(paired, "paired",
                     np.where(gnorm >= grad_thr, "transversal", "neither"))
    return TPResult(label=label, witness=witness, grad_norm=gnorm,
                    angular_threshold=ang_thr, radial_threshold=rad_thr,
                    grad_threshold=grad_thr)


# ---------------------------------------------------------------------------
# robust / narrow dichotomy
# ---------------------------------------------------------------------------

def single_linkage_sizes(dirs: np.ndarray, alpha: float) -> np.ndarray:
    """Cluster sizes of single linkage at threshold alpha, per stack row.

    ``dirs`` has shape (n, k, 3).  Directions are linked when their angle
    is <= alpha; clusters are the connected components of that graph, found
    as the boolean closure of the k x k adjacency.  Row i of the result
    lists row i's cluster sizes in descending order, padded with zeros to
    length k.
    """
    d = np.asarray(dirs, dtype=float)
    if d.ndim != 3 or d.shape[2] != 3:
        raise ConfigError(f"expected a stack of shape (n, k, 3), got {d.shape}")
    n, k = d.shape[:2]
    i, j = np.triu_indices(k, 1)
    linked = angle_between(d[:, i], d[:, j]) <= alpha
    reach = np.zeros((n, k, k), dtype=np.int32)
    reach[:, i, j] = reach[:, j, i] = linked
    reach[:, np.arange(k), np.arange(k)] = 1
    # after t squarings reach covers paths of up to 2^t links; k-1 suffice
    for _ in range(max(0, k - 2).bit_length()):
        reach = np.minimum(reach @ reach, 1)
    # count each cluster once, at its lowest index
    first = reach.argmax(axis=2) == np.arange(k)
    sizes = np.where(first, reach.sum(axis=2), 0)
    return -np.sort(-sizes, axis=1)


@dataclass(frozen=True)
class RNResult:
    label: np.ndarray            # (n,) robust|narrow|neither
    max_alpha_count: int         # densest alpha-cap occupancy in the family
    density_threshold: float     # RN_C_STAR * D
    cluster_sizes: np.ndarray    # (n, 6) descending, zero padded


def rn_classify(xi: np.ndarray, scale: ScaleParams,
                family: CapFamily | None) -> RNResult:
    """Robust when some alpha-cap of the active family is overfull, narrow
    when five of the six directions fall in one alpha-linkage cluster."""
    if family is not None and len(family) > 0:
        max_count = int(np.max(conflict_degrees(family)))
    else:
        max_count = 0
    threshold = RN_C_STAR * scale.D
    clusters = single_linkage_sizes(directions(xi), scale.alpha)
    if max_count > threshold:
        label = np.full(clusters.shape[0], "robust")
    else:
        label = np.where(clusters[:, 0] >= 5, "narrow", "neither")
    return RNResult(label=label, max_alpha_count=max_count,
                    density_threshold=threshold, cluster_sizes=clusters)


# ---------------------------------------------------------------------------
# samplers for the coverage experiments
# ---------------------------------------------------------------------------

def _shell_points(scale: ScaleParams, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    v = unit_vectors(rng, n)
    radii = rng.uniform(0.5 * scale.lam, 2.0 * scale.lam, size=n)
    return v * radii[:, np.newaxis]


def sample_sextuple(scale: ScaleParams, seed: int,
                    replicates: int | Iterable[int],
                    kind: str = "generic") -> np.ndarray:
    """Seeded sextuple draws for the coverage tables, shape (n, 6, 3).

    ``replicates`` is a count n (replicates 0..n-1) or the replicate
    indices.  Replicate ``rep`` reads only its own stream,
    ``keyed_rng(seed, "sextuple", kind, repr(lam), rep)``, so a draw never
    depends on which other replicates share the batch.

    generic: six independent shell points.
    paired: three points, second block an exact permuted copy.
    perturbed: paired, then the second block jittered at alpha scale.
    clustered5: five directions inside one alpha cluster, one far away.
    """
    if kind not in SAMPLER_KINDS:
        raise ConfigError(f"unknown sextuple kind {kind!r}")
    if isinstance(replicates, (int, np.integer)):
        replicates = range(replicates)
    reps = list(replicates)
    n = len(reps)
    streams = keyed_rngs(seed, ("sextuple", kind, repr(scale.lam)), reps)
    lam = scale.lam
    if kind == "clustered5":
        pts = np.empty((n, 6, 3))
        for i, rng in enumerate(streams):
            base = _shell_points(scale, rng, 1)[0]
            radius = norm(base)
            near = clustered_dirs(rng, base / radius, 5, 0.2 * scale.alpha)
            pts[i, 0] = base
            pts[i, 1:5] = radius * near[1:]
            pts[i, 5] = _shell_points(scale, rng, 1)[0]
        return check_shell(pts, scale)
    # the other kinds draw each replicate's raw numbers in stream order and
    # share the arithmetic, which is elementwise and so the same per row
    m = 6 if kind == "generic" else 3
    # a perturbed base is drawn interior so the jitter cannot leave the shell
    lo, hi = (0.6, 1.9) if kind == "perturbed" else (0.5, 2.0)
    v = np.empty((n, m, 3))
    radii = np.empty((n, m))
    perm = np.empty((n, 3), dtype=np.int64)
    jitter = np.empty((n, 3, 3))
    for i, rng in enumerate(streams):
        v[i] = rng.normal(size=(m, 3))
        radii[i] = rng.uniform(lo * lam, hi * lam, size=m)
        if kind == "paired":
            perm[i] = rng.permutation(3)
        elif kind == "perturbed":
            jitter[i] = rng.normal(size=(3, 3))
    v /= norm(v)[..., np.newaxis]
    pts = v * radii[:, :, np.newaxis]
    if kind == "paired":
        pts = np.concatenate(
            [pts, np.take_along_axis(pts, perm[:, :, np.newaxis], axis=1)],
            axis=1)
    elif kind == "perturbed":
        pts = np.concatenate(
            [pts, pts + 0.3 * (scale.alpha * scale.lam * jitter)], axis=1)
    return check_shell(pts, scale)
