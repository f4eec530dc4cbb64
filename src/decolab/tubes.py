"""Parabolic tubes in the space-time cell and their overlap statistics.

A cap with on-shell center xi (|xi| ~ lam) generates the tube

    T = { (t, x) : |x - 2 t xi| <= rho, |t| <= t_half, |x| <= x_half }

inside the cell Q = {|t| <= t_half} x {|x| <= x_half}; the truncated variant
additionally removes the axial core |x| <= rho/4.  Note the proportions: the
cross-section radius rho equals twice the spatial half-width of the cell, so
tubes here are fat slabs that all meet near t = 0.  The boundary-layer
fraction below quantifies exactly that.

Volume and overlap estimates are hit-or-miss Monte Carlo: the share of
uniform draws over the analytic cylinder envelope that land in the tube (or
in both tubes), times the envelope's volume.  Only the multiplicity
statistics reweight their draws, by 1/M.  Counter-based keyed streams make
the results independent of evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caps import (CapFamily, chord, conflict_degrees, pair_counts_within,
                   pairs_within)
from .errors import ConfigError, DensityError
from .geometry import angle_between, norm
from .rng import keyed_rng, unit_vectors
from .scale import ScaleParams


#: exact fraction of the cell taken by the layer |t| <= lam**(-3/2)/16
BOUNDARY_LAYER_FRACTION = 0.125

MIN_SAMPLES = 1000

#: multiplicity threshold c * D, and the density precondition's c_star * D
MULTIPLICITY_C = 0.5
DENSITY_C_STAR = 0.5

#: tubes per block in multiplicity_counts, which bounds its memory
COUNT_CHUNK = 256

#: anchors of l2_sum's sampled panel, and the most pairs it draws per band
L2_ANCHORS = 32
L2_PAIRS_PER_BAND = 48


@dataclass(frozen=True)
class Tube:
    scale: ScaleParams
    xi: np.ndarray            # frequency center (3,), or a (B, 3) stack
    truncated: bool = False
    cap_index: int = -1


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int


def tube_for_cap(family: CapFamily, index: int, truncated: bool = False) -> Tube:
    xi = family.scale.lam * family.centers[index]   # one row of family.xi()
    return Tube(scale=family.scale, xi=xi, truncated=truncated,
                cap_index=index)


def membership(tube: Tube, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized containment test; t is (...,), x is (..., 3).

    The one statement of tube coverage.  A (B, 3) stack of centers tests B
    tubes at once: with t[:, None] and x[:, None, :] the result is (n, B).
    """
    s = tube.scale
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    axial = x - 2.0 * t[..., np.newaxis] * tube.xi
    r_ax = norm(axial)
    r_x = norm(x)
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


def _ball(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points of the unit 3-ball."""
    return unit_vectors(rng, n) * (rng.random(n) ** (1.0 / 3.0))[:, np.newaxis]


def sample_cylinder(tube: Tube, n: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples of the cylinder envelope around the tube axis."""
    s = tube.scale
    t = rng.uniform(-s.t_half, s.t_half, size=n)
    x = 2.0 * t[:, np.newaxis] * tube.xi + s.rho * _ball(rng, n)
    return t, x


def _binomial_estimate(hits: int, n: int, volume: float) -> MCEstimate:
    p = hits / n
    return MCEstimate(value=p * volume,
                      stderr=math.sqrt(p * (1.0 - p) / n) * volume,
                      samples=n)


def mc_volume(tube: Tube, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo tube volume via rejection against the cylinder envelope."""
    if samples < MIN_SAMPLES:
        raise ConfigError(f"need >= {MIN_SAMPLES} samples, got {samples}")
    rng = keyed_rng(seed, "tube-volume", repr(tube.scale.lam), tube.cap_index,
                    int(tube.truncated))
    t, x = sample_cylinder(tube, samples, rng)
    hits = int(np.count_nonzero(membership(tube, t, x)))
    return _binomial_estimate(hits, samples, cylinder_volume(tube.scale))


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
    t, x = sample_cylinder(t1, samples, rng)
    both = membership(t1, t, x) & membership(t2, t, x)
    return _binomial_estimate(int(np.count_nonzero(both)), samples,
                              cylinder_volume(t1.scale))


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


@dataclass(frozen=True)
class CSCheck:
    lhs: float
    rhs: float
    multiplicity: int

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs


def pointwise_cs_check(scale: ScaleParams, xis: np.ndarray, truncated: bool,
                       amps: np.ndarray, t: float, x: np.ndarray) -> CSCheck:
    """|sum over covering tubes of a|^2 <= M * sum |a|^2 at one point.

    An instance of Cauchy-Schwarz, so the inequality is exact; the checker
    compares the two float sides without tolerance.
    """
    active = membership(Tube(scale, xis, truncated), np.full((1, 1), t),
                        np.reshape(x, (1, 1, 3)))[0]
    amps = np.asarray(amps)
    m = int(np.count_nonzero(active))
    s = complex(np.sum(amps[active]))
    lhs = abs(s) ** 2
    rhs = m * float(np.sum(np.abs(amps[active]) ** 2))
    return CSCheck(lhs=lhs, rhs=rhs, multiplicity=m)


def boundary_layer_mc(scale: ScaleParams, samples: int, seed: int) -> MCEstimate:
    """MC fraction of the cell with |t| <= lam**(-3/2)/16 and |x| <= 2 rho.

    The spatial condition is vacuous (2 rho = 4 x_half), so the exact value
    is the time fraction 1/8; the estimator still tests both conditions.
    """
    if samples < MIN_SAMPLES:
        raise ConfigError(f"need >= {MIN_SAMPLES} samples, got {samples}")
    rng = keyed_rng(seed, "boundary-layer", repr(scale.lam))
    t = rng.uniform(-scale.t_half, scale.t_half, size=samples)
    x = scale.x_half * _ball(rng, samples)
    layer = (np.abs(t) <= scale.lam ** (-1.5) / 16.0) \
        & (norm(x) <= 2.0 * scale.rho)
    hits = int(np.count_nonzero(layer))
    return _binomial_estimate(hits, samples, 1.0)


# ---------------------------------------------------------------------------
# overlap sum over a family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusRow:
    j: int                    # dyadic index: separations in [2^j, 2^(j+1)) alpha
    delta: float              # left edge of the dyadic angular band
    pair_count: int
    sampled_pairs: int
    mean_overlap: float
    analytic_bound: float     # rho^4 / (lam * delta) at the band's left edge


@dataclass(frozen=True)
class L2SumResult:
    n_caps: int
    tube_volume: MCEstimate
    diagonal: float
    off_diagonal: float
    total: float              # S = diagonal + 2 * sum of unordered overlaps
    rows: tuple[AnnulusRow, ...]


def band_pair_counts(family: CapFamily) -> np.ndarray:
    """Unordered cap pairs per dyadic band [2^j, 2^(j+1)) alpha, j = 0..jmax.

    Band 0 also takes every closer pair, band jmax every farther one; jmax
    is one past the first band whose lower edge reaches pi.  One scan of
    ``caps.pair_counts_within`` counts the pairs within the chord of each
    edge 2^j alpha under pi, exactly as a KD-tree's ``count_neighbors``
    does.  That rule counts d <= r, so each radius sits one float below its
    chord to keep the upper edges strict.  An edge at or past pi takes
    every pair, with no comparison.
    """
    n, alpha = len(family), family.scale.alpha
    jmax = max(1, int(math.ceil(math.log(math.pi / alpha, 2.0))) + 1)
    edges = alpha * 2.0 ** np.arange(1, jmax + 1)
    below_pi = edges[edges < math.pi]
    closer = np.full(jmax + 1, n * (n - 1) // 2)
    closer[:len(below_pi)] = pair_counts_within(
        family.centers, np.nextafter(2.0 * np.sin(0.5 * below_pi), 0.0))
    return np.diff(closer, prepend=0)


def _dyadic_band(angles: np.ndarray, alpha: float, jmax: int) -> np.ndarray:
    return np.clip(np.floor(np.log2(angles / alpha)), 0, jmax)


def band_pairs(family: CapFamily, j: int,
               pair_counts: np.ndarray) -> np.ndarray:
    """Every unordered pair (i < k) of dyadic band j, as a sorted (m, 2) array.

    Pairs are banded as l2_sum bands its panel, by the angle between the
    centers.  The scan keeps the pairs whose chord lies between the chords
    of the band's edges 2^j alpha and 2^(j+1) alpha, each widened outward
    by a relative 1e-9, so only about the band's own pairs are held; the
    angle filter then keeps band j.  Band 0 reaches down to 0.
    """
    alpha = family.scale.alpha
    jmax = len(pair_counts) - 1
    widen = 1.0 + 1e-9
    lo = (2.0 ** j) * alpha if j > 0 else 0.0
    hi = (2.0 ** (j + 1)) * alpha
    centers = family.centers
    pairs = pairs_within(centers, widen * chord(min(math.pi, hi)),
                         chord(min(math.pi, lo)) / widen)
    band = _dyadic_band(angle_between(centers[pairs[:, 0]],
                                      centers[pairs[:, 1]]), alpha, jmax)
    return pairs[band == j]


def l2_sum(family: CapFamily, seed: int,
           samples_per_pair: int = 2048) -> L2SumResult:
    """Overlap sum S = sum over ordered cap pairs of |T cap T'|.

    The diagonal uses one volume estimate (all on-shell tubes are congruent
    by rotation).  Off-diagonal pairs are grouped into dyadic angular bands;
    each band's mean overlap is estimated on a keyed-random panel of pairs
    anchored at L2_ANCHORS fixed caps, then extrapolated by the exact pair
    count of the band.  A band the anchors miss draws its panel from its
    own pairs (``band_pairs``), so every band with pairs is in the sum.
    Tubes are truncated.  Desk-scale families only.
    """
    n = len(family)
    if n < 2:
        raise ConfigError("overlap sum needs at least two caps")
    if n > 10_000:
        raise ConfigError("family too large; restrict to a local cone first")
    lam, alpha = family.scale.lam, family.scale.alpha
    pair_counts = band_pair_counts(family)
    jmax = len(pair_counts) - 1

    vol = mc_volume(tube_for_cap(family, 0, True), max(20_000, samples_per_pair),
                    seed)

    # sampled panel: (anchor, cap) pairs in anchor order, then cap order
    rng = keyed_rng(seed, "l2-anchors", repr(lam))
    anchors = rng.choice(n, size=min(n, L2_ANCHORS), replace=False)
    ang = family.angles_from(anchors)
    a_idx, c_idx = np.nonzero(ang > 0)
    bands = _dyadic_band(ang[a_idx, c_idx], alpha, jmax)
    panel = np.stack([anchors[a_idx], c_idx], axis=1)

    rows = []
    off_total = 0.0
    for j in np.nonzero(pair_counts)[0].tolist():
        cand = panel[bands == j]
        if not len(cand):
            cand = band_pairs(family, j, pair_counts)
            if not len(cand):       # the band's pairs sit on an edge tie
                continue
        pick = keyed_rng(seed, "l2-band", repr(lam), j)
        take = min(len(cand), L2_PAIRS_PER_BAND)
        chosen = cand[pick.choice(len(cand), size=take, replace=False)]
        # one keyed Monte Carlo stream per pair
        mean_ov = float(np.mean([
            mc_pair_overlap(tube_for_cap(family, a, True),
                            tube_for_cap(family, c, True),
                            samples_per_pair, seed).value
            for a, c in chosen.tolist()]))
        count = int(pair_counts[j])
        delta = (2.0 ** j) * alpha
        rows.append(AnnulusRow(
            j=j, delta=delta, pair_count=count, sampled_pairs=take,
            mean_overlap=mean_ov,
            analytic_bound=family.scale.rho ** 4 / (lam * delta),
        ))
        off_total += mean_ov * count

    diagonal = n * vol.value
    return L2SumResult(
        n_caps=n,
        tube_volume=vol,
        diagonal=diagonal,
        off_diagonal=2.0 * off_total,
        total=diagonal + 2.0 * off_total,
        rows=tuple(rows),
    )
