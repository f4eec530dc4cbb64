"""Cap families on the unit sphere of frequency directions.

A cap family at scale r = lam**(-2/3) is a maximal r-separated set of unit
vectors: pairwise angular separation >= r, covering radius <= 2r.  The
lattice ``build_lattice`` returns is a deterministic Fibonacci spiral
slightly denser than the target separation, so it is reproducible bit
for bit.  It is a SpiralLattice, known by its size: its coordinates are
laid down only when its centers are read, and its separation and
covering never read them.  The builder checks that the
spiral is r-separated from its nearest chord, which comes from the
spiral's index structure, not from a nearest-neighbour search: point i
sits at height (2i+1)/n - 1 and azimuth i*G, so a pair (i, i+k) has
height gap 2k/n and azimuth step k*G.  A chord of at most c needs an
offset k <= c n / 2 and one end in a polar index range found in closed
form, so ``spiral_pairs_within`` lists every pair within any chord in one
pass over the spiral's rows, each laid down once, and
``spiral_nearest_chord`` is its smallest chord under a bound from the
first rows (Swinbank & Purser, QJRMS 132, 2006).  At the real spiral
density the nearest chord sits about 9% past chord(r) at
every lam the builder supports, and a spiral that is not r-separated
raises.  The same index structure answers a probe's nearest spiral point:
the inverse spherical Fibonacci mapping (Keinert et al., ACM TOG 34(6),
2015) bounds it, and one contiguous height window settles it exactly.

Angular bookkeeping on a family:

* min_separation: the spiral's nearest chord, as an angle,
* covering_probe: the spiral's bound-then-refine covering of probe
  directions,
* conflict_pairs: pairs under alpha by the exact scan of the pairs,
* ring_histogram: occupancy of the thin rings [k*alpha, (k+1)*alpha)
  around a chosen cap,
* greedy_color: first-fit colouring of the angle < alpha conflict graph,
* select_separated: the four-out-of-six pigeonhole selector.

min_separation and covering_probe answer only for a SpiralLattice, the type
``build_lattice`` returns, and raise ConfigError on any other family.  The
other neighbour questions, which ``restrict_to_cone`` and hand-made families
ask too, go to the exact pair scans
(``pairs_within``, ``pair_counts_within``), which take the pairs in row
blocks of bounded memory.  Their squared chords are summed x, then y, then
z, the order and the rule of a KD-tree (Bentley, CACM 18, 1975), so they
give a tree's answers bit for bit; the package builds no tree and needs no
scipy.  The scans are quadratic in the rows, and meant for desk-scale
families.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateScaleError
from .geometry import BLOCK_ROWS, angle_between, dot, norm
from .scale import ScaleParams


def chord(angle: float) -> float:
    """Euclidean chord length subtending ``angle`` on the unit sphere."""
    return 2.0 * math.sin(0.5 * angle)


#: the golden ratio phi, which fixes the spiral's Fibonacci lattice
_GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))
#: azimuth step of the Fibonacci spiral, 2*pi over the golden ratio squared
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _blocks(n: int):
    """(lo, hi) of each block of BLOCK_ROWS in range(n), in order."""
    return ((lo, min(n, lo + BLOCK_ROWS)) for lo in range(0, n, BLOCK_ROWS))


def _spiral_y(i, n: int):
    """Heights of rows ``i`` (float indices) of the n-point Fibonacci spiral."""
    offset = 2.0 / n
    return i * offset - 1.0 + 0.5 * offset


def _spiral_rows(i: np.ndarray, n: int) -> np.ndarray:
    """Rows ``i`` (float indices) of the n-point Fibonacci spiral.

    Every formula acts index by index, so a row is the same bits whichever
    indices it is laid down with.
    """
    y = _spiral_y(i, n)
    rad = np.sqrt(np.clip(1.0 - y * y, 0.0, None))
    phi = i * _GOLDEN_ANGLE
    return np.stack([np.cos(phi) * rad, y, np.sin(phi) * rad], axis=-1)


def _spiral_count(v, n: int, side: str) -> np.ndarray:
    """``np.searchsorted(fibonacci_sphere(n)[:, 1], v, side)``, without the
    column.

    The height y_i = (2i + 1)/n - 1 inverts to a count, which is then fixed
    up exactly: it moves down while the height before it is not below v and
    up while the height at it is (below means <= v for side "right" and < v
    for "left"), each height computed as ``_spiral_rows`` computes it.  The
    stored heights ascend, so the fixed-up count is the binary search's.
    """
    v = np.asarray(v, dtype=float)
    below = np.less_equal if side == "right" else np.less
    count = np.clip(np.floor((v + 1.0) * (0.5 * n) + 0.5), 0.0, n)
    while True:
        down = (count > 0) & ~below(_spiral_y(count - 1.0, n), v)
        up = (count < n) & below(_spiral_y(count, n), v)
        if not (down.any() or up.any()):
            return count.astype(np.intp)
        count += up
        count -= down


def fibonacci_sphere(n: int) -> np.ndarray:
    """n points of the deterministic Fibonacci spiral, shape (n, 3).

    Laid down in blocks of BLOCK_ROWS rows into one output, so the
    temporaries of the formulas never span the whole spiral.
    """
    if n < 1:
        raise ConfigError(f"need at least one point, got {n}")
    out = np.empty((n, 3))
    for lo, hi in _blocks(n):
        out[lo:hi] = _spiral_rows(np.arange(lo, hi, dtype=float), n)
    return out


def _sq_chords(a: np.ndarray, i, b: np.ndarray, j) -> np.ndarray:
    """Squared chords between rows ``a[i]`` and ``b[j]``, broadcast.

    ``i`` and ``j`` are slices, index arrays, single rows or index tuples
    such as (slice, None), which makes a column of rows.  Each squared
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


def pairs_within(points: np.ndarray, radius: float) -> np.ndarray:
    """Pairs (i < k) of rows within chord ``radius``, (m, 2), lexicographic.

    A pair is within when its squared chord, summed x, then y, then z, is
    at most radius * radius: the rule, and the sums, of a KD-tree's
    ``query_pairs``, so the two give the same set bit for bit.  An exact
    scan, quadratic in the rows; meant for desk-scale families.
    """
    r2 = radius * radius
    found = [np.stack(np.nonzero(sq <= r2), axis=1) + lo
             for lo, sq in _upper_sq_chords(points)]
    return np.concatenate(found) if found else np.zeros((0, 2), np.intp)


def pair_counts_within(points: np.ndarray, radii) -> np.ndarray:
    """Pairs (i < k) of rows within each chord radius, as in ``pairs_within``.

    Equal to a KD-tree's ``count_neighbors`` of the rows against
    themselves, less the n self-pairs, halved.  The squared radii must not
    decrease; repeated and infinite radii are fine.  Each pair costs one
    binary search, ``np.searchsorted`` for the first radius it is within,
    and one ``bincount`` per row block, so hundreds of radii cost about
    what one does.
    """
    r2 = np.square(np.asarray(radii, dtype=float))
    if np.isnan(r2).any() or np.any(r2[1:] < r2[:-1]):
        raise ConfigError("pair count radii must be ascending numbers")
    counts = np.zeros(len(r2) + 1, dtype=np.int64)
    for _, sq in _upper_sq_chords(points):
        # NaN, the diagonal and below, sorts past every radius
        counts += np.bincount(np.searchsorted(r2, sq.ravel()),
                              minlength=len(r2) + 1)
    return np.cumsum(counts[:-1])


def spiral_pairs_within(n: int, c: float):
    """Pairs (i < j) of ``fibonacci_sphere(n)`` within chord ``c``, and
    their squared chords, from the spiral's size alone.

    Yields (i, j, sq) blocks that each keep a pair, in no set order within
    a block.  sq is ``_sq_chords`` of rows i and j, summed in
    ``geometry.dot``'s order, and a pair is kept when sq <= c * c, the rule
    and the sums of a KD-tree's ``query_pairs(c)``, so the blocks hold that
    query's set bit for bit.

    With y_i = (2i+1)/n - 1, rho = sqrt(1 - y^2) and G the golden angle, the
    pair (i, i+k) has

        chord^2 = (2k/n)^2 + (rho_i - rho_{i+k})^2
                  + 4 rho_i rho_{i+k} sin^2(k G / 2).

    A chord of at most U then needs k <= U n / 2, and min(rho_i,
    rho_{i+k})^2 <= (U^2 - (2k/n)^2) / (4 sin^2(k G / 2)).  rho grows from
    each pole to the equator, so for each offset that leaves one index
    range at each pole, found by ``_spiral_count`` on y, and only those
    pairs are measured.  The pass walks i in blocks of BLOCK_ROWS and keeps
    a window of rows from the block's first i to its last j.  Each row is
    laid down once, by ``_spiral_rows``, when the first pair needs it, so
    the window holds at most BLOCK_ROWS + c n / 2 rows.  A block's pairs
    come in runs, one offset each, and are measured whole runs at a time,
    under 2 BLOCK_ROWS pairs, since the runs by the poles are many.  So no
    array is as long as the spiral or the pair set while c n / 2 is under
    n.

    The filter holds for the ideal points; the stored ones differ.  Their
    azimuths are fl(i G), within ulp(n G) / 2 <= 2^-53 n G of i G (about
    2e-10 rad at lam 4096, 2e-9 at lam 16384), and their y and rho within
    about 2^-51 sqrt(n) (rho >= 1/sqrt(n)), so a float chord is within
    2^-52 (n G + 4 sqrt(n)) of the ideal one, plus a few ulps.  The filter
    widens U = c, and the y cut-offs, by slack = 2^-46 (n G + sqrt(n)), at
    least 16 times that, which also covers the rounding of the filter's
    own arithmetic.  Raises ConfigError unless c >= 0.
    """
    if not c >= 0.0:
        raise ConfigError(f"need a chord >= 0, got {c}")
    slack = 2.0 ** -46 * (n * _GOLDEN_ANGLE + math.sqrt(n))
    u = c + slack
    ks = np.arange(1, int(min(n - 1, 0.5 * u * n)) + 1)
    sin_half = np.sin(0.5 * _GOLDEN_ANGLE * ks)
    rho2 = (u * u - (2.0 * ks / n) ** 2) / (4.0 * sin_half * sin_half)
    h = np.sqrt(np.clip(1.0 - rho2, 0.0, None))   # rho <= sqrt(rho2): |y| >= h
    # pairs (i, i+k): i in [0, south) and in [north, n - k)
    south = np.minimum(_spiral_count(slack - h, n, "right"), n - ks)
    north = np.clip(_spiral_count(h - slack, n, "left") - ks, south, n - ks)
    steps = np.tile(ks, 2)
    rows, base = np.empty((0, 3)), 0    # the window: rows base, base + 1, ...
    for lo, hi in _blocks(n - 1):
        # the block's runs of i, counted from lo, each at one offset
        starts = np.concatenate([np.zeros_like(ks), np.maximum(north - lo, 0)])
        lens = np.maximum(np.concatenate([np.minimum(south, hi), np.minimum(
            n - ks, hi)]) - lo - starts, 0)
        if not lens.any():
            continue
        rows = np.concatenate([rows[lo - base:], _spiral_rows(np.arange(
            max(base + len(rows), lo),
            lo + np.max((starts + lens + steps)[lens > 0]), dtype=float), n)])
        base = lo
        # whole runs, measured while they start in one span of BLOCK_ROWS pairs
        cut = np.flatnonzero(np.diff((np.cumsum(lens) - lens) // BLOCK_ROWS))
        for first, m, k in zip(*(np.split(x, cut + 1)
                                 for x in (starts, lens, steps))):
            i = np.repeat(first - np.cumsum(m) + m, m)
            i += np.arange(len(i))
            j = i + np.repeat(k, m)
            sq = _sq_chords(rows, i, rows, j)
            keep = sq <= c * c
            if keep.any():
                yield i[keep] + lo, j[keep] + lo, sq[keep]


def spiral_nearest_chord(n: int) -> float:
    """Smallest chord between two points of ``fibonacci_sphere(n)``, from
    the spiral's size alone.

    Equal, bit for bit, to the minimum second-neighbour distance of a
    KD-tree k=2 query over ``fibonacci_sphere(n)``; inf for fewer than two
    points.

    The smallest squared chord b among the first 64 rows, by the south
    pole, bounds the nearest chord; at the lattice sizes for lam 2 to 16384
    it is within 2e-10 of it.  The smallest sq of ``spiral_pairs_within(n,
    c)``, c = sqrt(b) (1 + 2^-50), is then exact, since every pair at most
    as close as the bound pair is within c.  The bound pair itself stays
    inside the cut sq <= c * c, though fl(sqrt(b))^2 can round below b:
    fl(sqrt(b)) >= sqrt(b) (1 - 2^-53), and forming c and c * c rounds
    twice more, so c * c >= b (1 - 2^-53)^4 (1 + 2^-50)^2 > b before its
    rounding, which cannot take it below the float b.  So the pass is never
    empty, and the search lays down at most n + 64 rows.
    """
    if n < 2:
        return math.inf
    head = _spiral_rows(np.arange(min(n, 64), dtype=float), n)
    near = _sq_chords(head, (slice(None), None), head, slice(None))
    c = math.sqrt(float(np.min(near[np.triu_indices(len(head), 1)])))
    pairs = spiral_pairs_within(n, c * (1.0 + 2.0 ** -50))
    return math.sqrt(min(float(np.min(sq)) for _, _, sq in pairs))


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


def spiral_covering_chord(n: int, probes: np.ndarray) -> float:
    """Largest chord from a probe to its nearest point of
    ``fibonacci_sphere(n)``, from the spiral's size alone, without a
    KD-tree.

    Equal, bit for bit, to the largest distance of a KD-tree k=1 query of
    the probes; ``covering_probe`` states the argument.  The bounds are
    taken a block of BLOCK_ROWS probes at a time, and only the candidate
    rows and the height windows are laid down, by ``_spiral_rows``, with
    ``_spiral_count`` in place of a search of the stored heights.
    """
    bound = np.empty(len(probes))
    for lo, hi in _blocks(len(probes)):
        near = _spiral_candidates(probes[lo:hi], n)
        rows = _spiral_rows(near.ravel().astype(float), n)
        bound[lo:hi] = np.min(_sq_chords(
            rows, np.arange(near.size).reshape(near.shape),
            probes, np.arange(lo, hi)[:, None]), axis=1)
    best = 0.0
    for p in np.argsort(bound)[::-1].tolist():
        if bound[p] <= best:
            break
        w = math.sqrt(bound[p])
        yp = float(probes[p, 1])
        w += 2.0 ** -48 * (w + abs(yp) + 1.0)
        lo, hi = _spiral_count([yp - w, yp + w], n, "left").tolist()
        best = max(best, float(np.min(_sq_chords(
            _spiral_rows(np.arange(lo, hi, dtype=float), n), slice(None),
            probes, p))))
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
        tang -= axis * float(dot(tang, axis))
        tang /= norm(tang)
        ang = radius * rng.random()
        out.append(math.cos(ang) * axis + math.sin(ang) * tang)
    return np.asarray(out)


#: why min_separation and covering_probe refuse a family
_LATTICE_ONLY = ("separation and covering are known only for a lattice "
                 "that build_lattice returned")


@dataclass(frozen=True)
class CapFamily:
    """Finite set of unit direction vectors at a common scale."""

    scale: ScaleParams
    centers: np.ndarray                 # (N, 3), unit rows

    def __len__(self) -> int:
        return self.centers.shape[0]

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
        return CapFamily(self.scale, self.centers[keep])


@dataclass(frozen=True)
class SpiralLattice(CapFamily):
    """The family ``build_lattice`` returns: the Fibonacci spiral of
    ``size`` points, with ``nearest_chord``, the smallest chord between two
    of them, from ``spiral_nearest_chord``.

    Its length is its size, and its separation and covering come from the
    spiral's index, so it holds no coordinates until ``centers`` is first
    read; then it lays down ``fibonacci_sphere(size)`` and keeps it.
    """

    centers: np.ndarray = field(init=False, repr=False, compare=False)
    size: int = field(kw_only=True)
    nearest_chord: float = field(kw_only=True)

    def __len__(self) -> int:
        return self.size

    def __getattr__(self, name: str):
        # reached only while no centers are laid down: the field has no
        # class default, so the normal lookup misses
        if name != "centers":
            raise AttributeError(name)
        centers = fibonacci_sphere(self.size)
        object.__setattr__(self, "centers", centers)
        return centers


# a spiral of ~8/r^2 points has covering radius just under r, well under 2r,
# and its nearest chord about 9% past chord(r): r-separated as it stands
_DENSITY_FACTOR = 8.0

#: largest spiral build_lattice accepts: 2^22 points are 96 MiB of
#: coordinates (lam 2^14 asks for 3.3M, lam 2^15 for 8.4M).  The build
#: and its separation and covering hold one block of rows; the coordinates
#: are laid down only when a user reads the lattice's centers
MAX_SPIRAL_POINTS = 2 ** 22


def spiral_size(scale: ScaleParams) -> int:
    """Size of the Fibonacci spiral that build_lattice lays down at ``scale``.

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


def build_lattice(scale: ScaleParams) -> SpiralLattice:
    """Deterministic maximal r-separated cap family for ``scale``: the
    Fibonacci spiral of ``spiral_size(scale)`` points, as a SpiralLattice
    that lays down its coordinates on first use.

    ``spiral_nearest_chord`` checks, exactly, from the size alone and
    without a pair scan, that the spiral's nearest chord is strictly past
    chord(r), and the lattice carries that value as its ``nearest_chord``.
    At the real spiral density it is at least 1.09 chord(r) at every lam
    the builder supports.  A spiral that fails the check is no r-separated
    lattice and raises DegenerateScaleError.
    """
    n = spiral_size(scale)
    nearest = spiral_nearest_chord(n)
    if not nearest > chord(scale.r):
        raise DegenerateScaleError(f"spiral at lam {scale.lam:g} is not "
                                   f"r-separated: nearest chord {nearest:.6g}")
    return SpiralLattice(scale=scale, size=n, nearest_chord=nearest)


def min_separation(lattice: SpiralLattice) -> float:
    """Smallest pairwise angle in the lattice, from its ``nearest_chord``.

    Raises ConfigError on a family that is not a SpiralLattice.
    """
    if not isinstance(lattice, SpiralLattice):
        raise ConfigError(_LATTICE_ONLY)
    return 2.0 * math.asin(min(1.0, 0.5 * lattice.nearest_chord))


def covering_probe(lattice: SpiralLattice, probes: np.ndarray) -> float:
    """Largest angular distance from the probe directions to the lattice.

    Equal, bit for bit, to the largest nearest-neighbour distance of a
    KD-tree k=1 query of the probes.  The family must be a SpiralLattice,
    which needs no scan; it bounds, then refines.

    Each probe's four candidate indices (``_spiral_candidates``) give an
    upper bound b_p on its nearest squared chord d_p.  The probes are
    visited in descending b_p.  For each, every spiral point whose height
    is within sqrt(b_p) of the probe's is measured, and the smallest is d_p
    exactly.  That window is one contiguous index range, because the
    spiral's y is sorted.  The visit stops at the first b_p at or below the
    largest d_p so far, since every later d_p <= b_p cannot exceed it.
    Usually one window decides.

    The slack is only rounding, because the window and the chords are taken
    on the same rows: ``_spiral_rows`` lays each one down as
    ``fibonacci_sphere`` stores it, and ``_spiral_count`` finds the window
    that a search of the stored heights finds.  The nearest point's float squared chord is at
    least dy^2 (1 - 2^-53)^5, with dy its exact height gap, so |dy| <=
    sqrt(b_p) (1 + 3 * 2^-53), and the float sqrt(b_p) rounds once more.
    Forming y_p +- w rounds by at most 2^-53 (|y_p| + w).  Widening
    w = sqrt(b_p) by 2^-48 (w + |y_p| + 1), over six times all of that,
    keeps that point inside the window.

    Raises ConfigError, before any work, on a family that is not a
    SpiralLattice, and unless the probes are a non-empty, finite (m, 3)
    stack.
    """
    if not isinstance(lattice, SpiralLattice):
        raise ConfigError(_LATTICE_ONLY)
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != 3 or not len(probes):
        raise ConfigError(f"need a non-empty (m, 3) stack of probe "
                          f"directions, got shape {probes.shape}")
    if not np.isfinite(probes).all():
        raise ConfigError("probe directions must be finite")
    worst = spiral_covering_chord(len(lattice), probes)
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


def greedy_color(pairs: np.ndarray, n: int) -> np.ndarray:
    """First-fit colour of each of n caps, in ascending cap order, shape
    (n,), for the graph whose edges are the (i < j) rows of ``pairs``,
    usually ``conflict_pairs(family)``.

    Cap v takes the smallest colour that none of its neighbours below it
    holds.  Uses at most max_degree + 1 classes; on the conflict graph caps
    sharing a class are >= alpha apart because every closer pair is an
    edge.
    """
    lower: list[list[int]] = [[] for _ in range(n)]   # neighbours below
    for i, j in pairs.tolist():
        lower[j].append(i)
    colors = np.empty(n, dtype=np.int64)
    for v in range(n):
        used = {colors[w] for w in lower[v]}
        colors[v] = min(set(range(len(used) + 1)) - used)
    return colors


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
