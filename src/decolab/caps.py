"""Cap families on the unit sphere of frequency directions.

A cap family at scale r = lam**(-2/3) is a maximal r-separated set of unit
vectors: pairwise angular separation >= r, covering radius <= 2r.  The
builder lays down a deterministic Fibonacci spiral slightly denser than the
target separation, so the result is reproducible bit for bit.  The spiral's
nearest chord decides whether it is already r-separated, and it comes from
the spiral's index structure, not from a nearest-neighbour search: point i
sits at height (2i+1)/n - 1 and azimuth i*G, so a pair (i, i+k) has height
gap 2k/n and azimuth step k*G, and only a few offsets k and two polar index
ranges per offset can hold a chord under a known one
(``spiral_nearest_chord``; Swinbank & Purser, QJRMS 132, 2006).  At the real
spiral density the nearest chord sits about 9% past chord(r) at every lam
the builder supports, and the spiral is the family.  Only a spiral denser
than that is pruned, greedily in spiral order, so the separation invariant
holds by construction rather than by the spiral's favourable constants.
The same index structure answers a probe's nearest spiral point: the
inverse spherical Fibonacci mapping (Keinert et al., ACM TOG 34(6), 2015)
bounds it, and one contiguous height window settles it exactly.

Angular bookkeeping on a family:

* min_separation: the spiral's nearest chord for a lattice returned whole,
  one k=2 query of the family's KD-tree for any other family,
* covering_probe: the spiral's bound-then-refine covering for a lattice
  returned whole, one k=1 query of the family's KD-tree for any other
  family,
* conflict_pairs: pairs under alpha by an exact scan of the pairs in row
  blocks, with the KD-tree's own rule, so it needs no tree,
* ring_histogram / annulus_count: occupancy of the thin rings
  [k*alpha, (k+1)*alpha) around a chosen cap,
* greedy_color: first-fit colouring of the angle < alpha conflict graph,
* select_separated: the four-out-of-six pigeonhole selector.

Only ``kd_tree`` builds a KD-tree (Bentley, CACM 18, 1975), and only it
loads scipy.spatial: for the prune of a spiral denser than the real one,
and for the nearest chord and covering of a family that is not a whole
spiral.  No registered experiment or ladder reaches either at its default
lams.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DegenerateScaleError
from .geometry import BLOCK_ROWS, angle_between
from .scale import ScaleParams

if TYPE_CHECKING:
    from scipy.spatial import cKDTree


def chord(angle: float) -> float:
    """Euclidean chord length subtending ``angle`` on the unit sphere."""
    return 2.0 * math.sin(0.5 * angle)


#: the golden ratio phi, which fixes the spiral's Fibonacci lattice
_GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))
#: azimuth step of the Fibonacci spiral, 2*pi over the golden ratio squared
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _spiral_rows(i: np.ndarray, n: int) -> np.ndarray:
    """Rows ``i`` (float indices) of the n-point Fibonacci spiral."""
    offset = 2.0 / n
    y = i * offset - 1.0 + 0.5 * offset
    rad = np.sqrt(np.clip(1.0 - y * y, 0.0, None))
    phi = i * _GOLDEN_ANGLE
    return np.stack([np.cos(phi) * rad, y, np.sin(phi) * rad], axis=-1)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n points of the deterministic Fibonacci spiral, shape (n, 3).

    Laid down in blocks of BLOCK_ROWS rows into one output, so the
    temporaries of the formulas never span the whole spiral.
    """
    if n < 1:
        raise ConfigError(f"need at least one point, got {n}")
    out = np.empty((n, 3))
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(n, lo + BLOCK_ROWS)
        out[lo:hi] = _spiral_rows(np.arange(lo, hi, dtype=float), n)
    return out


def _sq_chords(a: np.ndarray, i, b: np.ndarray, j) -> np.ndarray:
    """Squared chords between rows ``a[i]`` and ``b[j]``, broadcast.

    ``i`` and ``j`` are slices, index arrays or single rows.  Each squared
    chord is summed x, then y, then z, in the order ``geometry.dot`` and the
    KD-tree add them, one column at a time so only a few columns are live.
    """
    total = a[:, 0][i] - b[:, 0][j]
    total *= total
    for col in (1, 2):
        d = a[:, col][i] - b[:, col][j]
        total += d * d
    return total


#: squared chords per block of the pair scans, which bounds their memory
PAIR_BLOCK = 2 ** 16


def _upper_sq_chords(points: np.ndarray):
    """Squared chords of every pair (i < k) of rows, one row block at a time.

    Yields (lo, sq): sq[a, c] is the squared chord between rows lo + a and
    lo + c, from ``_sq_chords``, and NaN where lo + c <= lo + a, so no
    comparison counts the diagonal or a pair twice.  A block takes
    PAIR_BLOCK // n rows, at least one.
    """
    n = points.shape[0]
    rows = max(1, PAIR_BLOCK // max(n, 1))
    for lo in range(0, n - 1, rows):
        hi = min(n, lo + rows)
        sq = _sq_chords(points, np.arange(lo, hi)[:, None],
                        points, slice(lo, n))
        sq[:, :hi - lo][np.tri(hi - lo, dtype=bool)] = np.nan
        yield lo, sq


def pairs_within(points: np.ndarray, radius: float,
                 inner: float = 0.0) -> np.ndarray:
    """Pairs (i < k) of rows within chord ``radius``, (m, 2), lexicographic.

    A pair is within when its squared chord, summed x, then y, then z, is
    at most radius * radius: the rule, and the sums, of a KD-tree's
    ``query_pairs``, so the two give the same set bit for bit.  A positive
    ``inner`` also drops the pairs whose squared chord is under
    inner * inner.  An exact scan, quadratic in the rows; meant for
    desk-scale families.
    """
    r2, in2 = radius * radius, inner * inner
    found = []
    for lo, sq in _upper_sq_chords(points):
        hit = sq <= r2
        if inner > 0.0:
            hit &= sq >= in2
        found.append(np.stack(np.nonzero(hit), axis=1) + lo)
    return np.concatenate(found) if found else np.zeros((0, 2), np.intp)


def pair_counts_within(points: np.ndarray, radii) -> np.ndarray:
    """Pairs (i < k) of rows within each chord radius, as in ``pairs_within``.

    Equal to a KD-tree's ``count_neighbors`` of the rows against
    themselves, less the n self-pairs, halved.  Each radius costs one
    comparison per pair, an infinite one too.
    """
    r2 = [r * r for r in np.asarray(radii, dtype=float).tolist()]
    counts = np.zeros(len(r2), dtype=np.int64)
    for _, sq in _upper_sq_chords(points):
        counts += [np.count_nonzero(sq <= v) for v in r2]
    return counts


def spiral_nearest_chord(spiral: np.ndarray) -> float:
    """Smallest chord between two points of ``fibonacci_sphere(n)``.

    Equal, bit for bit, to the minimum second-neighbour distance of a
    KD-tree k=2 query over the same rows; inf for fewer than two points.

    With y_i = (2i+1)/n - 1, rho = sqrt(1 - y^2) and G the golden angle, the
    pair (i, i+k) has

        chord^2 = (2k/n)^2 + (rho_i - rho_{i+k})^2
                  + 4 rho_i rho_{i+k} sin^2(k G / 2).

    Any pairs give an upper bound U on the nearest chord: here every pair
    at the three offsets under 3 sqrt(n) with the smallest |sin(k G / 2)|.
    A chord at most U then needs k <= U n / 2, and min(rho_i, rho_{i+k})^2
    <= (U^2 - (2k/n)^2) / (4 sin^2(k G / 2)).  rho grows from each pole to
    the equator, so for each offset that leaves one index range at each
    pole, found by ``np.searchsorted`` on y.  Only those pairs are measured,
    in ``geometry.dot``'s summation order, and the smallest is exact.

    The bound holds for the ideal points; the stored ones differ.  Their
    azimuths are fl(i G), within ulp(n G) / 2 <= 2^-53 n G of i G (about
    2e-10 rad at lam 4096, 2e-9 at lam 16384), and their y and rho within
    about 2^-51 sqrt(n) (rho >= 1/sqrt(n)), so a float chord is within
    2^-52 (n G + 4 sqrt(n)) of the ideal one, plus a few ulps.  The filter
    widens U, and the y cut-offs, by slack = 2^-46 (n G + sqrt(n)), at
    least 16 times that, which also covers the rounding of the bound.
    """
    n = spiral.shape[0]
    if n < 2:
        return math.inf
    slack = 2.0 ** -46 * (n * _GOLDEN_ANGLE + math.sqrt(n))
    short = np.arange(1, min(n, int(3.0 * math.sqrt(n)) + 1))
    seeds = short[np.argsort(np.abs(np.sin(0.5 * _GOLDEN_ANGLE * short)),
                             kind="stable")[:3]]
    best = min(float(np.min(_sq_chords(spiral, slice(0, n - k),
                                       spiral, slice(k, n))))
               for k in seeds.tolist())
    bound = math.sqrt(best) + slack
    ks = np.arange(1, min(n - 1, int(0.5 * bound * n)) + 1)
    ks = ks[~np.isin(ks, seeds)]
    sin_half = np.sin(0.5 * _GOLDEN_ANGLE * ks)
    rho2 = (bound * bound - (2.0 * ks / n) ** 2) / (4.0 * sin_half * sin_half)
    h = np.sqrt(np.clip(1.0 - rho2, 0.0, None))   # rho <= sqrt(rho2): |y| >= h
    y = spiral[:, 1]
    south = np.minimum(np.searchsorted(y, slack - h, side="right"), n - ks)
    north = np.clip(np.searchsorted(y, h - slack, side="left") - ks,
                    south, n - ks)
    # pairs (i, i+k): i in [0, south) and in [north, n - k)
    starts = np.concatenate([np.zeros_like(ks), north])
    lens = np.concatenate([south, n - ks - north])
    ends = np.cumsum(lens)
    if ends.size and ends[-1]:
        i = np.arange(ends[-1]) + np.repeat(starts - (ends - lens), lens)
        j = i + np.repeat(np.concatenate([ks, ks]), lens)
        best = min(best, float(np.min(_sq_chords(spiral, i, spiral, j))))
    return math.sqrt(best)


def _spiral_candidates(probes: np.ndarray, n: int) -> np.ndarray:
    """Four indices of ``fibonacci_sphere(n)`` around each probe, (m, 4).

    The inverse spherical Fibonacci mapping (Keinert et al., "Spherical
    Fibonacci Mapping", ACM TOG 34(6), 2015).  In that paper's frame the
    spiral's height is -y and point i's azimuth is -i G mod 2 pi.  The zone
    k of a probe's height picks the Fibonacci offsets (F_k, F_{k+1}), whose
    (azimuth, height) steps span the spiral's local lattice; a 2x2 solve
    puts the probe in one lattice cell, and the cell's corners are the
    candidates, clipped to [0, n - 1].
    """
    cos_t = -probes[:, 1]
    azim = -np.arctan2(probes[:, 2], probes[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        zone = np.log(n * math.pi * math.sqrt(5.0) * (1.0 - cos_t * cos_t))
    k = np.fmax(2.0, np.floor(zone / math.log(_GOLDEN_RATIO ** 2)))
    fk = _GOLDEN_RATIO ** k / math.sqrt(5.0)
    f = np.stack([np.round(fk), np.round(fk * _GOLDEN_RATIO)])   # (2, m)
    # offset F steps the azimuth by 2 pi ((F + 1)/phi mod 1 - 1/phi) and the
    # height by -2F/n
    turn = (f + 1.0) * (_GOLDEN_RATIO - 1.0)
    da = 2.0 * math.pi * (turn - np.floor(turn) - (_GOLDEN_RATIO - 1.0))
    dh = -2.0 * f / n
    det = da[0] * dh[1] - da[1] * dh[0]
    h = cos_t - (1.0 - 1.0 / n)
    c0 = np.floor((dh[1] * azim - da[1] * h) / det)
    c1 = np.floor((da[0] * h - dh[0] * azim) / det)
    corner = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])
    idx = ((c0[:, None] + corner[0]) * f[0][:, None]
           + (c1[:, None] + corner[1]) * f[1][:, None])
    return np.clip(idx, 0, n - 1).astype(np.intp)


def spiral_covering_chord(spiral: np.ndarray, probes: np.ndarray) -> float:
    """Largest chord from a probe to its nearest point of ``spiral``, which
    is ``fibonacci_sphere(n)``, without a KD-tree.

    Equal, bit for bit, to the largest distance of a KD-tree k=1 query of
    the probes; ``covering_probe`` states the argument.
    """
    bound = np.min(_sq_chords(spiral, _spiral_candidates(probes, len(spiral)),
                              probes, np.arange(len(probes))[:, None]), axis=1)
    best = 0.0
    for p in np.argsort(bound)[::-1].tolist():
        if bound[p] <= best:
            break
        w = math.sqrt(bound[p])
        yp = float(probes[p, 1])
        w += 2.0 ** -48 * (w + abs(yp) + 1.0)
        lo, hi = np.searchsorted(spiral[:, 1], [yp - w, yp + w])
        best = max(best, float(np.min(
            _sq_chords(spiral, slice(lo, hi), probes, p))))
    return math.sqrt(best)


def clustered_dirs(rng: np.random.Generator, axis: np.ndarray, n: int,
                   radius: float) -> np.ndarray:
    """The unit ``axis`` and n - 1 unit vectors within angle ``radius`` of it.

    Each further direction tilts the axis toward a random tangent by an
    angle uniform in [0, radius).  Per direction the stream is read as
    normal(3) then random(), in that order: seeded families depend on it.
    """
    out = [axis]
    for _ in range(n - 1):
        tang = rng.normal(size=3)
        tang -= axis * float(np.dot(tang, axis))
        tang /= np.linalg.norm(tang)
        ang = radius * rng.random()
        out.append(math.cos(ang) * axis + math.sin(ang) * tang)
    return np.asarray(out)


def kd_tree(points: np.ndarray) -> cKDTree:
    """A KD-tree over ``points`` (Bentley, CACM 18, 1975).

    The package's one tree builder.  scipy.spatial, most of the package's
    import time, loads on the first call, so a run that needs no tree
    never loads it.
    """
    from scipy.spatial import cKDTree
    return cKDTree(points, balanced_tree=False)


@dataclass(frozen=True)
class CapFamily:
    """Finite set of unit direction vectors at a common scale."""

    scale: ScaleParams
    centers: np.ndarray                 # (N, 3), unit rows
    colors: np.ndarray | None = None    # (N,) ints once coloured

    def __len__(self) -> int:
        return self.centers.shape[0]

    @property
    def n_colors(self) -> int:
        if self.colors is None:
            raise ConfigError("family is not coloured yet")
        return int(self.colors.max(initial=-1)) + 1

    @cached_property
    def tree(self) -> cKDTree:
        """KD-tree over the centers, built on first use.  A lattice returned
        whole by ``build_lattice`` needs none for its separation or covering.

        A family derived by ``replace`` or ``restrict_to_cone`` is a new
        object, so it never sees the tree of the family it came from.
        """
        return kd_tree(self.centers)

    @cached_property
    def is_spiral(self) -> bool:
        """Whether the centers are exactly ``fibonacci_sphere(len(self))``.

        True only on a lattice that ``build_lattice`` returned whole, which
        seeds it.  A pruned, ``replace``d, ``restrict_to_cone`` or hand-made
        family is a new object and reads False.
        """
        return False

    @cached_property
    def nearest_chord(self) -> float:
        """Smallest chord from a center to its nearest other center.

        One k=2 query of the tree; inf for a family of fewer than two caps.
        A lattice that ``build_lattice`` returns whole carries the spiral's
        value from ``spiral_nearest_chord`` instead and builds no tree for
        it.  A pruned, ``replace``d, ``restrict_to_cone`` or hand-made
        family is a new object and queries its own tree.
        """
        if len(self) < 2:
            return math.inf
        dist, _ = self.tree.query(self.centers, k=2, workers=-1)
        return float(np.min(dist[:, 1]))

    def xi(self) -> np.ndarray:
        """On-shell frequency centers lam * center, shape (N, 3)."""
        return self.scale.lam * self.centers

    def angles_from(self, index) -> np.ndarray:
        """Angles from cap ``index`` to every cap (self included, angle 0).

        An array of k indices gives the k rows stacked, shape (k, N).
        """
        return angle_between(self.centers[index][..., np.newaxis, :],
                             self.centers)

    def restrict_to_cone(self, axis: np.ndarray, radius: float) -> "CapFamily":
        """Sub-family of caps within angular ``radius`` of ``axis``."""
        keep = angle_between(np.asarray(axis, float), self.centers) <= radius
        colors = None if self.colors is None else self.colors[keep]
        return replace(self, centers=self.centers[keep], colors=colors)


# a spiral of ~8/r^2 points has covering radius just under r, so pruning to
# r-separation keeps the covering radius of the pruned set under 2r
_DENSITY_FACTOR = 8.0

#: largest spiral build_lattice lays down: 2^22 points are 96 MiB of
#: coordinates before the KD-tree (lam 2^14 asks for 3.3M, lam 2^15 for 8.4M)
MAX_SPIRAL_POINTS = 2 ** 22


def spiral_size(scale: ScaleParams) -> int:
    """Points of the Fibonacci spiral that build_lattice prunes at ``scale``.

    Raises before anything is allocated when the cap radius is degenerate
    or the spiral would exceed MAX_SPIRAL_POINTS.
    """
    r = scale.r
    if r >= 1.0:
        raise DegenerateScaleError(f"cap radius {r} >= 1, sphere degenerates")
    n = max(16, int(round(_DENSITY_FACTOR / (r * r))))
    if n > MAX_SPIRAL_POINTS:
        raise ConfigError(
            f"lam {scale.lam:g} needs a spiral of {n} points, over the "
            f"{MAX_SPIRAL_POINTS} the lattice supports")
    return n


def build_lattice(scale: ScaleParams) -> CapFamily:
    """Deterministic maximal r-separated cap family for ``scale``.

    ``spiral_nearest_chord`` decides, exactly and without a KD-tree.  Past
    chord(r) no pair is within r, and the spiral is returned whole, carrying
    that value as its ``nearest_chord``; this is every lam at the real
    spiral density.  The test is strict because the prune counts a pair at
    exactly chord(r) as too close.  Only a denser spiral is pruned greedily,
    on the pairs of one ``query_pairs`` call.
    """
    n_fib = spiral_size(scale)
    spiral = CapFamily(scale=scale, centers=fibonacci_sphere(n_fib))
    nearest = spiral_nearest_chord(spiral.centers)
    if nearest > chord(scale.r):
        # seed the cached_properties: the family is exactly this spiral
        spiral.__dict__["nearest_chord"] = nearest
        spiral.__dict__["is_spiral"] = True
        return spiral
    close = spiral.tree.query_pairs(chord(scale.r), output_type="ndarray")
    # greedy in spiral order: j goes if an earlier neighbour was kept, and
    # every earlier point's fate is settled before j's is decided
    close = close[np.argsort(close[:, 1], kind="stable")]
    later, starts = np.unique(close[:, 1], return_index=True)
    keep = np.ones(n_fib, dtype=bool)
    for j, earlier in zip(later, np.split(close[:, 0], starts[1:])):
        if keep[earlier].any():
            keep[j] = False
    return CapFamily(scale=scale, centers=spiral.centers[keep])


def first_cap(scale: ScaleParams) -> np.ndarray:
    """Center of cap 0 of ``build_lattice(scale)``, without building it.

    Greedy pruning in spiral order never drops spiral point 0, which is
    computed alone by the spiral's own formulas.
    """
    return _spiral_rows(np.zeros(1), spiral_size(scale))[0]


def min_separation(family: CapFamily) -> float:
    """Smallest pairwise angle in the family (via nearest neighbours);
    pi for fewer than two caps."""
    return 2.0 * math.asin(min(1.0, 0.5 * family.nearest_chord))


def covering_probe(family: CapFamily, probes: np.ndarray) -> float:
    """Largest angular distance from the probe directions to the family.

    Equal, bit for bit, to the largest nearest-neighbour distance of a
    KD-tree query of the probes.  A family that is not a whole spiral
    (``is_spiral``) runs that query on its tree.

    A whole spiral builds no tree; it bounds, then refines.  Each probe's
    four candidate indices (``_spiral_candidates``) give an upper bound b_p
    on its nearest squared chord d_p.  The probes are visited in descending
    b_p.  For each, every spiral point whose height is within sqrt(b_p) of
    the probe's is measured, and the smallest is d_p exactly.  That window
    is one contiguous index range, because the spiral's y is sorted.  The
    visit stops at the first b_p at or below the largest d_p so far, since
    every later d_p <= b_p cannot exceed it.  Usually one window decides.

    The slack is only rounding, because the window and the chords are taken
    on the same stored rows.  The nearest point's float squared chord is at
    least dy^2 (1 - 2^-53)^5, with dy its exact height gap, so |dy| <=
    sqrt(b_p) (1 + 3 * 2^-53), and the float sqrt(b_p) rounds once more.
    Forming y_p +- w rounds by at most 2^-53 (|y_p| + w).  Widening
    w = sqrt(b_p) by 2^-48 (w + |y_p| + 1), over six times all of that,
    keeps that point inside the window.

    Raises ConfigError unless the probes are a non-empty, finite (m, 3)
    stack.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != 3 or not len(probes):
        raise ConfigError(f"need a non-empty (m, 3) stack of probe "
                          f"directions, got shape {probes.shape}")
    if not np.isfinite(probes).all():
        raise ConfigError("probe directions must be finite")
    if family.is_spiral:
        worst = spiral_covering_chord(family.centers, probes)
    else:
        dist, _ = family.tree.query(probes, k=1, workers=-1)
        worst = float(np.max(dist))
    return 2.0 * math.asin(min(1.0, 0.5 * worst))


# ---------------------------------------------------------------------------
# thin angular rings
# ---------------------------------------------------------------------------

def ring_histogram(family: CapFamily, center_index: int) -> np.ndarray:
    """Occupancy of the rings [k*alpha, (k+1)*alpha) around one cap.

    Entry k counts the other caps whose angle from the center falls in ring
    k; the center itself is excluded.  Summing the histogram is therefore
    exactly len(family) - 1, which the partition tests assert.
    """
    alpha = family.scale.alpha
    angles = family.angles_from(center_index)
    angles = np.delete(angles, center_index)
    rings = np.floor(angles / alpha).astype(np.int64)
    return np.bincount(rings)


def annulus_count(family: CapFamily, center_index: int, k: int) -> int:
    """Number of caps in the thin ring [k*alpha, (k+1)*alpha), k >= 1."""
    if k < 1:
        raise ConfigError(f"ring index must be >= 1, got {k}")
    alpha = family.scale.alpha
    angles = family.angles_from(center_index)
    angles = np.delete(angles, center_index)
    return int(np.count_nonzero((angles >= k * alpha) & (angles < (k + 1) * alpha)))


# ---------------------------------------------------------------------------
# conflict graph and colouring
# ---------------------------------------------------------------------------

def conflict_pairs(family: CapFamily) -> np.ndarray:
    """Pairs (i < j) of caps closer than alpha, as an (m, 2) int array.

    Within chord(alpha) by ``pairs_within``: the set a KD-tree's
    ``query_pairs`` gives, in lexicographic order.
    """
    return pairs_within(family.centers, chord(family.scale.alpha))


def conflict_degrees(family: CapFamily) -> np.ndarray:
    """Degree of each cap in the angle < alpha conflict graph."""
    return np.bincount(conflict_pairs(family).ravel(), minlength=len(family))


def greedy_color(family: CapFamily) -> CapFamily:
    """First-fit colouring of the conflict graph in ascending cap order.

    Uses at most max_degree + 1 classes; caps sharing a class are >= alpha
    apart because every closer pair is an edge.
    """
    n = len(family)
    adj: dict[int, list[int]] = {}
    for i, j in conflict_pairs(family):
        adj.setdefault(int(i), []).append(int(j))
        adj.setdefault(int(j), []).append(int(i))
    colors = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        used = {colors[w] for w in adj.get(v, ()) if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return replace(family, colors=colors)


# ---------------------------------------------------------------------------
# four separated directions out of six
# ---------------------------------------------------------------------------

_SIX_PAIRS = tuple(itertools.combinations(range(6), 2))
_PAIR_I, _PAIR_J = np.asarray(_SIX_PAIRS).T
#: the 15 four-subsets of six indices, lexicographic, and the indices into
#: _SIX_PAIRS of the six pairs inside each
_FOUR_SUBSETS = np.asarray(list(itertools.combinations(range(6), 4)))
_SUBSET_PAIRS = np.asarray([[_SIX_PAIRS.index(p)
                             for p in itertools.combinations(sub, 2)]
                            for sub in _FOUR_SUBSETS.tolist()])


@dataclass(frozen=True)
class SeparationResult:
    subset: np.ndarray        # (n, 4) first separated subset; -1 if none
    dense_pairs: np.ndarray   # (n,)

    @property
    def found(self) -> np.ndarray:
        return self.subset[:, 0] >= 0


def select_separated(dirs: np.ndarray, alpha: float) -> SeparationResult:
    """First 4-subset of each six directions that is pairwise >= alpha apart.

    ``dirs`` is a stack of shape (n, 6, 3).  Subsets are scanned in
    lexicographic order, so the result is deterministic.  dense_pairs counts
    the strictly-closer-than-alpha pairs among all fifteen, whatever the
    search outcome.
    """
    d = np.asarray(dirs, dtype=float)
    if d.ndim != 3 or d.shape[1:] != (6, 3):
        raise ConfigError(f"expected a stack of six 3-vectors, shape "
                          f"(n, 6, 3), got {d.shape}")
    ang = angle_between(d[:, _PAIR_I], d[:, _PAIR_J])          # (n, 15)
    fits = (ang >= alpha)[:, _SUBSET_PAIRS].all(axis=2)       # (n, 15)
    subset = np.where(fits.any(axis=1)[:, np.newaxis],
                      _FOUR_SUBSETS[fits.argmax(axis=1)], -1)
    return SeparationResult(subset=subset,
                            dense_pairs=np.count_nonzero(ang < alpha, axis=1))
