"""Exact overlap of two tubes in the lam-free cell.

Every tube volume and pair overlap in ``tubes`` is lam^-3 times a number
that depends only on the angle between the two caps.  This module computes
that number by a deterministic quadrature; ``tubes`` holds the tube sets,
the Monte Carlo estimators audited against it, and the overlap sum built
on it.
"""
import functools

import numpy as np

from .errors import ConfigError

#: Gauss-Legendre nodes of overlap_profile: in R, and per segment in m
_PROFILE_NODES = (16, 24)

#: relative error bound of overlap_profile, about six times the largest
#: gap to a rule refined 4x in both axes (1.7e-8, near delta = 0.08)
PROFILE_RTOL = 1e-7


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term Legendre recurrence, from the
    guesses cos(pi (k - 1/4) / (n + 1/2)); eight steps reach rounding.
    Computed once per process on first use; the arrays are read-only.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _cap_pair(delta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Common area of the caps {w . u_i > c}, c >= 0, of two unit vectors
    delta apart, over 4 pi."""
    s2 = 1.0 - c * c
    with np.errstate(divide="ignore", invalid="ignore"):
        lens = (np.arccos(np.clip((np.cos(delta) - c * c) / s2, -1.0, 1.0))
                + 2.0 * c * np.arccos(np.clip(
                    c * (1.0 - np.cos(delta)) / (np.sqrt(s2) * np.sin(delta)),
                    -1.0, 1.0)))
    area = np.where(c < np.cos(0.5 * delta), 0.5 - lens / (2.0 * np.pi), 0.0)
    return np.where(delta == 0.0, 0.5 * (1.0 - c), area)


def overlap_profile(delta, truncated: bool = False) -> np.ndarray:
    """lam^3 |T cap T'| for two tubes whose caps are ``delta`` apart.

    Vectorised over delta in [0, pi]; delta = 0 gives lam^3 |T|.  In the
    lam-free cell (x' = x/rho, t' = t/t_half, and 2 t_half lam = rho) a tube
    is |x' - t'u| <= 1, |t'| <= 1, |x'| <= 1/2, and the truncated tube also
    needs |x'| > 1/4; the volume element rho^3 t_half is lam^-3 / 2.

    At fixed x', with R = |x'| and p = x'.u, a tube holds the t' interval
    [-h(-p), h(p)], h(q) = min(1, q + sqrt(q^2 + 1 - R^2)), so two tubes
    share h(min(p1, p2)) + h(-max(p1, p2)); x' -> -x' makes the two terms
    integrate equally.  Over the sphere |x'| = R, mu = min(w.u1, w.u2) has
    the survival function S(m) = P(|m|) for m >= 0 and -m + P(-m) for
    m < 0, P = ``_cap_pair``, the common area of the two caps {w.u_i > c}
    over 4 pi: with s^2 = 1 - c^2,

        P = 1/2 - [arccos((cos delta - c^2) / s^2)
                   + 2c arccos(c (1 - cos delta) / (s sin delta))] / (2 pi)

    for 0 < delta < 2 arccos c, (1 - c)/2 at delta = 0, and 0 past
    2 arccos c.  Integrating by parts in m (h(R m) = 1 from m = R/2 on),

        f(delta) = 4 pi int_{R0}^{1/2} R^2 [1 - R int_{-1}^{R/2} (1 - S(m))
                   (1 + R m / sqrt(R^2 m^2 + 1 - R^2)) dm] dR,

    with R0 = 0 for the full tube and 1/4 for the truncated one.  P shrinks
    as delta grows, so f is nonincreasing in delta.

    Gauss-Legendre in R, and in m on each piece between the kinks
    -cos(delta/2), 0 and min(cos(delta/2), R/2), with _PROFILE_NODES
    nodes.  Its relative error is below PROFILE_RTOL = 1e-7 for every
    delta; f(0) agrees with the closed 1-D form to about 1e-15.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.all((delta >= 0.0) & (delta <= np.pi)):
        raise ConfigError("cap separations must lie in [0, pi]")
    r0 = 0.25 if truncated else 0.0
    (xr, wr), (xm, wm) = map(_gauss_legendre, _PROFILE_NODES)
    half = np.cos(0.5 * delta)
    total = 0.0
    for x, w in zip(xr.tolist(), wr.tolist()):
        big_r = r0 + (0.5 - r0) * 0.5 * (1.0 + x)
        cut = np.stack(np.broadcast_arrays(
            -1.0, -half, 0.0, np.minimum(half, 0.5 * big_r), 0.5 * big_r),
            axis=-1)[..., np.newaxis]
        lo, width = cut[..., :-1, :], np.diff(cut, axis=-2)
        m = lo + width * (0.5 * (1.0 + xm))
        surv = np.maximum(-m, 0.0) + _cap_pair(delta[..., None, None], abs(m))
        g = (1.0 - surv) * (1.0 + big_r * m / np.sqrt(
            big_r * big_r * m * m + 1.0 - big_r * big_r))
        inner = np.sum(0.5 * width * wm * g, axis=(-2, -1))
        total = total + w * big_r * big_r * (1.0 - big_r * inner)
    return 4.0 * np.pi * 0.5 * (0.5 - r0) * total


@functools.cache
def cell_volume(truncated: bool = False) -> float:
    """lam^3 |T|, the lam-free volume of one tube: ``overlap_profile(0)``,
    computed once per process on first use."""
    return float(overlap_profile(0.0, truncated))
