"""Parabolic tubes in the space-time cell and their overlap statistics.

A cap with on-shell center xi (|xi| ~ lam) generates the tube

    T = { (t, x) : |x - 2 t xi| <= rho, |t| <= t_half, |x| <= x_half }

inside the cell Q = {|t| <= t_half} x {|x| <= x_half}; the truncated variant
additionally removes the axial core |x| <= rho/4.  Note the proportions: the
cross-section radius rho equals twice the spatial half-width of the cell, so
tubes here are fat slabs that all meet near t = 0.  The boundary layer
|t| <= lam**(-3/2)/16 below, an exact 1/8 of the cell, quantifies that.

In the lam-free cell x' = x/rho, t' = t/t_half every tube is the same set
up to a rotation, so a pair overlap is lam**-3 times a function of the
angle between the two caps alone: ``overlap.overlap_profile``, a
deterministic quadrature.  The tube-volume experiment reports the profile
at delta = 0 as the tube volume, and the overlap sum ``l2_sum`` is exact
from the profile and from exact pair counts; neither rests on a draw.
``mc_volume`` and ``mc_pair_overlap`` (hit-or-miss Monte Carlo over the
analytic cylinder envelope) are audits of the tube sets against the
profile: tube-volume, nested-ball and pair-overlap report their z, and the
tests z-test them.  The multiplicity statistics, which reweight their
draws by 1/M, sample too.  Counter-based keyed streams make the results
independent of evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caps import CapFamily, conflict_degrees, pair_counts_within
from .errors import ConfigError, DensityError
from .geometry import blockwise, norm
from .overlap import PROFILE_RTOL, overlap_profile
from .rng import MCEstimate, binomial_estimate, keyed_rng
from .scale import ScaleParams


#: half-height of the boundary layer, in units of lam**(-3/2)
BOUNDARY_LAYER_HALF_HEIGHT = 1.0 / 16.0

#: exact fraction of the cell taken by the layer |t| <= lam**(-3/2)/16
BOUNDARY_LAYER_FRACTION = 0.125

#: the universal constant C of |T cap T'| <= C * pair_overlap_bound.  The
#: exact overlap is f(delta) / lam^3 with f = overlap.overlap_profile, and
#: the bound is lam^-3 min(1, 1/delta), so the ratio is max(1, delta) f(delta)
#: <= pi f(0): f does not increase with delta, and delta <= pi.  f(0) is
#: overlap.cell_volume(), 0.4587220422766958 from its closed 1-D form
PAIR_OVERLAP_C = math.pi * 0.4587220422766958

MIN_SAMPLES = 1000

#: multiplicity threshold c * D, and the density precondition's c_star * D
MULTIPLICITY_C = 0.5
DENSITY_C_STAR = 0.5

#: tubes per block in multiplicity_counts, which bounds its memory
COUNT_CHUNK = 256

#: equal angular cells per dyadic band in l2_sum's exact pair count
L2_CELLS = 16


@dataclass(frozen=True)
class Tube:
    scale: ScaleParams
    xi: np.ndarray            # frequency center (3,), or a (B, 3) stack
    truncated: bool = False
    cap_index: int = -1


def tube_for_cap(family: CapFamily, index: int) -> Tube:
    xi = family.scale.lam * family.centers[index]   # one row of family.xi()
    return Tube(scale=family.scale, xi=xi, cap_index=index)


def membership(tube: Tube, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized containment test; t is (...,), x is (..., 3).

    The one statement of tube coverage.  A (B, 3) stack of centers tests B
    tubes at once: with t[:, None] and x[:, None, :] the result is (n, B).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return _covers(tube, t, x, norm(x))


def _covers(tube: Tube, t: np.ndarray, x: np.ndarray,
            r_x: np.ndarray) -> np.ndarray:
    """``membership`` with |x| given, so tubes that share points share it."""
    s = tube.scale
    r_ax = norm(x - 2.0 * t[..., np.newaxis] * tube.xi)
    ok = (r_ax <= s.rho) & (np.abs(t) <= s.t_half) & (r_x <= s.x_half)
    if tube.truncated:
        ok &= r_x > 0.25 * s.rho
    return ok


def cylinder_volume(scale: ScaleParams) -> float:
    """Volume of the sampling envelope: rho-ball cross-section, full height."""
    return (4.0 / 3.0) * math.pi * scale.rho ** 3 * (2.0 * scale.t_half)


def nested_ball_volume(scale: ScaleParams) -> float:
    """Closed-form volume of the static (xi = 0) full tube.

    With xi = 0 the axial constraint is |x| <= rho, which strictly contains
    the cell ball |x| <= x_half = rho/2, so the tube is ball(rho/2) times the
    full time interval: (4/3) pi (rho/2)^3 * lam**(-3/2).
    """
    return (4.0 / 3.0) * math.pi * (0.5 * scale.rho) ** 3 * (2.0 * scale.t_half)


def _in_ball(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Points of the unit 3-ball from normal rows v (n, 3) and uniforms u."""
    return v / norm(v)[:, np.newaxis] * (u ** (1.0 / 3.0))[:, np.newaxis]


def _ball(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points of the unit 3-ball: a normal (n, 3) draw, then n
    uniforms."""
    return _in_ball(rng.normal(size=(n, 3)), rng.random(n))


def _envelope_hits(tubes: tuple[Tube, ...], samples: int,
                   rng: np.random.Generator) -> int:
    """How many of ``samples`` uniform draws over the first tube's cylinder
    envelope land in every tube.

    The stream is read whole, in one order: the times, a normal (n, 3)
    draw, then n uniforms for the radii.  The draws are then placed and
    tested by ``blockwise``, and |x| is taken once for all tubes;
    every step acts row by row, so the hits do not depend on the block.
    """
    s, axis = tubes[0].scale, tubes[0].xi

    def inside(t, v, u):
        x = 2.0 * t[:, np.newaxis] * axis + s.rho * _in_ball(v, u)
        r_x = norm(x)
        return (np.logical_and.reduce([_covers(tube, t, x, r_x)
                                       for tube in tubes]),)

    t = rng.uniform(-s.t_half, s.t_half, size=samples)
    v = rng.normal(size=(samples, 3))
    (hit,) = blockwise(inside, t, v, rng.random(samples))
    return int(np.count_nonzero(hit))


def mc_volume(tube: Tube, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo tube volume via rejection against the cylinder envelope."""
    if samples < MIN_SAMPLES:
        raise ConfigError(f"need >= {MIN_SAMPLES} samples, got {samples}")
    rng = keyed_rng(seed, "tube-volume", repr(tube.scale.lam), tube.cap_index,
                    int(tube.truncated))
    return binomial_estimate(_envelope_hits((tube,), samples, rng),
                             samples, cylinder_volume(tube.scale))


def pair_overlap_bound(scale: ScaleParams, delta: float) -> float:
    """Analytic overlap bound rho^3 * min(rho/(lam*delta), lam**(-3/2)).

    delta is the angular separation of the two caps; delta = 0 selects the
    time-truncation branch lam**(-3/2).
    """
    if not delta >= 0.0:
        raise ConfigError(f"angular separation must be >= 0, got {delta!r}")
    time_branch = scale.lam ** (-1.5)
    if delta == 0.0:
        m = time_branch
    else:
        m = min(scale.rho / (scale.lam * delta), time_branch)
    return scale.rho ** 3 * m


def mc_pair_overlap(t1: Tube, t2: Tube, samples: int, seed: int) -> MCEstimate:
    """|T1 cap T2| estimated by sampling T1's envelope, testing both tubes."""
    if samples < MIN_SAMPLES:
        raise ConfigError(f"need >= {MIN_SAMPLES} samples, got {samples}")
    if t1.scale != t2.scale:
        raise ConfigError("tubes live at different scales")
    rng = keyed_rng(seed, "pair-overlap", repr(t1.scale.lam), t1.cap_index,
                    t2.cap_index)
    return binomial_estimate(_envelope_hits((t1, t2), samples, rng),
                             samples, cylinder_volume(t1.scale))


# ---------------------------------------------------------------------------
# whole-family machinery
# ---------------------------------------------------------------------------

def multiplicity_counts(scale: ScaleParams, xis: np.ndarray, truncated: bool,
                        t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M(t, x): how many of the family's tubes contain each sample point.

    Tubes are tested COUNT_CHUNK at a time, as one stacked ``membership``
    call per block, to bound memory.
    """
    t = np.asarray(t, dtype=float)[:, np.newaxis]
    x = np.asarray(x, dtype=float)[:, np.newaxis, :]
    counts = np.zeros(t.shape[0], dtype=np.int64)
    for lo in range(0, xis.shape[0], COUNT_CHUNK):
        block = Tube(scale, xis[lo:lo + COUNT_CHUNK], truncated)
        counts += np.count_nonzero(membership(block, t, x), axis=1)
    return counts


def density_check(family: CapFamily) -> bool:
    """Every cap needs more than DENSITY_C_STAR * D neighbours within alpha."""
    if len(family) == 0:
        raise ConfigError("density check on an empty family")
    counts = conflict_degrees(family)
    return bool(np.min(counts) > DENSITY_C_STAR * family.scale.D)


@dataclass(frozen=True)
class MultiplicityResult:
    threshold: float              # MULTIPLICITY_C * D
    fraction_below: float         # union-measure fraction with M < threshold
    union_ratio: float            # |union T| / (D^-1 sum |T|) = D * mean(1/M)
    m_min: int
    m_max: int
    m_mean_weighted: float        # mean of M under the union measure
    samples: int


def multiplicity_experiment(family: CapFamily, samples: int,
                            seed: int) -> MultiplicityResult:
    """Multiplicity statistics over the union of the family's truncated tubes.

    Sampling is a uniform mixture over tubes with 1/M reweighting, which
    turns tube-uniform draws into union-uniform expectations.  Requires the
    angular density precondition; families of isolated caps are rejected.
    """
    if not density_check(family):
        raise DensityError("family fails the angular density precondition")
    if samples < MIN_SAMPLES:
        raise ConfigError(f"need >= {MIN_SAMPLES} samples, got {samples}")
    xis = family.xi()
    n_caps = len(family)
    threshold = MULTIPLICITY_C * family.scale.D

    collected_m: list[np.ndarray] = []
    total = 0
    replicate = 0
    while total < samples:
        rng = keyed_rng(seed, "multiplicity", repr(family.scale.lam), replicate)
        batch = min(4096, samples - total) * 2
        idx = rng.integers(0, n_caps, size=batch)
        t = rng.uniform(-family.scale.t_half, family.scale.t_half, size=batch)
        x = 2.0 * t[:, np.newaxis] * xis[idx] + family.scale.rho * _ball(rng, batch)
        # accept proposals landing in their own tube
        ok = membership(Tube(family.scale, xis[idx], True), t, x)
        t, x = t[ok], x[ok]
        if t.shape[0] == 0:
            replicate += 1
            continue
        m = multiplicity_counts(family.scale, xis, True, t, x)
        collected_m.append(m[: samples - total])
        total += collected_m[-1].shape[0]
        replicate += 1

    m = np.concatenate(collected_m).astype(float)
    w = 1.0 / m                           # union-measure weights
    wsum = float(np.sum(w))
    below = float(np.sum(w * (m < threshold)) / wsum)
    return MultiplicityResult(
        threshold=threshold,
        fraction_below=below,
        union_ratio=float(family.scale.D * np.mean(w)),
        m_min=int(m.min()),
        m_max=int(m.max()),
        m_mean_weighted=float(np.sum(w * m) / wsum),
        samples=int(m.shape[0]),
    )


# ---------------------------------------------------------------------------
# exact overlap sum over a family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L2SumResult:
    tube_volume: float
    diagonal: float
    off_diagonal: float
    total: float              # S = diagonal + 2 * sum of unordered overlaps
    error_bound: float        # bound on |total - S|
    # per dyadic band j, separations in [2^j, 2^(j+1)) alpha: unordered
    # pairs, the sum of their overlaps, and a bound on that sum's error
    pair_counts: np.ndarray
    band_sums: np.ndarray
    band_errors: np.ndarray


def band_cells(family: CapFamily) -> tuple[np.ndarray, np.ndarray]:
    """Angle edges of every dyadic band's L2_CELLS cells, and their pairs.

    Band j spans [2^j alpha, 2^(j+1) alpha), j = 0..jmax, cut into L2_CELLS
    equal cells; band 0 reaches down to 0, edges past pi clip to pi, and
    jmax is one past the first band whose lower edge reaches pi.  Returns
    the edges, (jmax + 1, L2_CELLS + 1), and the unordered cap pairs per
    cell, (jmax + 1, L2_CELLS), from one ``caps.pair_counts_within`` scan at
    every cell's upper edge.  That rule counts d <= r, so each radius sits
    one float below its chord to keep the upper edges strict; an edge at pi
    takes every pair.
    """
    alpha = family.scale.alpha
    jmax = max(1, int(math.ceil(math.log(math.pi / alpha, 2.0))) + 1)
    lower = alpha * 2.0 ** np.arange(jmax + 1)
    upper = np.minimum(2.0 * lower, math.pi)
    lower[0] = 0.0
    edges = np.linspace(np.minimum(lower, math.pi), upper, L2_CELLS + 1,
                        axis=1)
    top = edges[:, 1:].ravel()
    radii = np.where(top < math.pi,
                     np.nextafter(2.0 * np.sin(0.5 * top), 0.0), math.inf)
    within = pair_counts_within(family.centers, radii)
    return edges, np.diff(within, prepend=0).reshape(jmax + 1, L2_CELLS)


def l2_sum(family: CapFamily) -> L2SumResult:
    """Overlap sum S = sum over ordered cap pairs of |T cap T'|, exactly.

    S = n f(0) / lam^3 + 2 sum over unordered pairs of f(delta) / lam^3,
    with f = ``overlap_profile`` of the truncated tube.  The pairs come
    counted per cell of each dyadic band (``band_cells``).  f is
    nonincreasing, so a cell's pairs lie between f at its two edges: each
    takes their mean, within half their gap plus the quadrature's
    PROFILE_RTOL; ``band_errors`` and ``error_bound`` add these up.
    Desk-scale families only.
    """
    n = len(family)
    if n < 2:
        raise ConfigError("overlap sum needs at least two caps")
    if n > 10_000:
        raise ConfigError("family too large; restrict to a local cone first")
    edges, counts = band_cells(family)
    f = overlap_profile(edges, truncated=True) / family.scale.lam ** 3
    band_sums = np.sum(counts * 0.5 * (f[:, :-1] + f[:, 1:]), axis=1)
    band_errors = np.sum(counts * (0.5 * (f[:, :-1] - f[:, 1:])
                                   + PROFILE_RTOL * f[:, :-1]), axis=1)
    # band 0 starts at delta = 0, so f[0, 0] is the tube volume
    volume, off_diagonal = float(f[0, 0]), 2.0 * float(np.sum(band_sums))
    return L2SumResult(
        tube_volume=volume, diagonal=n * volume,
        off_diagonal=off_diagonal, total=n * volume + off_diagonal,
        error_bound=n * PROFILE_RTOL * volume + 2.0 * float(np.sum(band_errors)),
        pair_counts=counts.sum(axis=1), band_sums=band_sums,
        band_errors=band_errors)
