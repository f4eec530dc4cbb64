"""Cap families on the unit sphere of frequency directions.

A cap family at scale r = lam**(-2/3) is a maximal r-separated set of unit
vectors: pairwise angular separation >= r, covering radius <= 2r.  The
builder lays down a deterministic Fibonacci spiral slightly denser than the
target separation, so the result is reproducible bit for bit.  One k=2
nearest-neighbour query over the spiral decides whether it is already
r-separated.  A Fibonacci lattice's nearest-neighbour spacing is nearly
uniform (Gonzalez, Math. Geosci. 42, 2010): at the real spiral density its
nearest chord sits about 9% past chord(r) at every lam the builder
supports, and the spiral is the family.  Only a spiral denser than that is
pruned, greedily in spiral order, so the separation invariant holds by
construction rather than by the spiral's favourable constants.

Angular bookkeeping on a family:

* min_separation / covering_probe / conflict_pairs: nearest-neighbour
  geometry on the family's one KD-tree (Bentley, CACM 18, 1975),
* ring_histogram / annulus_count: occupancy of the thin rings
  [k*alpha, (k+1)*alpha) around a chosen cap,
* greedy_color: first-fit colouring of the angle < alpha conflict graph,
* select_separated: the four-out-of-six pigeonhole selector.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DegenerateScaleError
from .geometry import angle_between
from .scale import ScaleParams


def chord(angle: float) -> float:
    """Euclidean chord length subtending ``angle`` on the unit sphere."""
    return 2.0 * math.sin(0.5 * angle)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n points of the deterministic Fibonacci spiral, shape (n, 3)."""
    if n < 1:
        raise ValueError("need at least one point")
    i = np.arange(n, dtype=float)
    offset = 2.0 / n
    y = i * offset - 1.0 + 0.5 * offset
    rad = np.sqrt(np.clip(1.0 - y * y, 0.0, None))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([np.cos(phi) * rad, y, np.sin(phi) * rad], axis=-1)


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
            raise ValueError("family is not coloured yet")
        return int(self.colors.max(initial=-1)) + 1

    @cached_property
    def tree(self) -> cKDTree:
        """KD-tree over the centers, built on first use.

        A family derived by ``replace`` or ``restrict_to_cone`` is a new
        object, so it never sees the tree of the family it came from.
        """
        return cKDTree(self.centers, balanced_tree=False)

    @cached_property
    def nearest_chord(self) -> float:
        """Smallest chord from a center to its nearest other center.

        One k=2 query of the tree; inf for a family of fewer than two caps.
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

    The spiral's ``nearest_chord`` decides.  Past chord(r) no pair is
    within r, and the spiral is returned whole, with the tree and nearest
    chord it was checked on; this is every lam at the real spiral density.
    The test is strict because the prune counts a pair at exactly chord(r)
    as too close.  Only a denser spiral is pruned greedily.
    """
    n_fib = spiral_size(scale)
    spiral = CapFamily(scale=scale, centers=fibonacci_sphere(n_fib))
    if spiral.nearest_chord > chord(scale.r):
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

    Greedy pruning in spiral order never drops spiral point 0.
    """
    return fibonacci_sphere(spiral_size(scale))[0]


def min_separation(family: CapFamily) -> float:
    """Smallest pairwise angle in the family (via nearest neighbours);
    pi for fewer than two caps."""
    return 2.0 * math.asin(min(1.0, 0.5 * family.nearest_chord))


def covering_probe(family: CapFamily, probes: np.ndarray) -> float:
    """Largest angular distance from the probe directions to the family."""
    dist, _ = family.tree.query(np.asarray(probes, float), k=1, workers=-1)
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
        raise ValueError(f"ring index must be >= 1, got {k}")
    alpha = family.scale.alpha
    angles = family.angles_from(center_index)
    angles = np.delete(angles, center_index)
    return int(np.count_nonzero((angles >= k * alpha) & (angles < (k + 1) * alpha)))


# ---------------------------------------------------------------------------
# conflict graph and colouring
# ---------------------------------------------------------------------------

def conflict_pairs(family: CapFamily) -> np.ndarray:
    """Pairs (i < j) of caps closer than alpha, as an (m, 2) int array."""
    pairs = family.tree.query_pairs(chord(family.scale.alpha),
                                    output_type="ndarray")
    return pairs.reshape(-1, 2)


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
        raise ValueError(f"expected a stack of six 3-vectors, shape (n, 6, 3),"
                         f" got {d.shape}")
    ang = angle_between(d[:, _PAIR_I], d[:, _PAIR_J])          # (n, 15)
    fits = (ang >= alpha)[:, _SUBSET_PAIRS].all(axis=2)       # (n, 15)
    subset = np.where(fits.any(axis=1)[:, np.newaxis],
                      _FOUR_SUBSETS[fits.argmax(axis=1)], -1)
    return SeparationResult(subset=subset,
                            dense_pairs=np.count_nonzero(ang < alpha, axis=1))
