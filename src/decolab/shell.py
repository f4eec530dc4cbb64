"""Thin bands around polynomial level sets in a rescaled frequency box.

Frequencies (tau, xi) near the shell are mapped to a unit 4-box by the
anisotropic scaling (tau, xi) -> (tau / lam^{3/2}, xi / lam^{1/2}); the
forward map multiplies back and carries Jacobian lam^3.  Inside the box we
measure the volume fraction of the band

    { p : |P(p)| <= beta * |grad P(p)| }

for polynomials P of low degree, with band half-width beta = c / (D * deg).
The degree cap is ceil(D^{1/4}); at desk scales that is 2.  A centered
hyperplane band has the exact fraction min(1, 2 * beta), which the
hyperplane-shell experiment checks on a midpoint grid in t.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import blockwise, dot, norm
from .rng import MCEstimate, binomial_estimate, keyed_rng
from .scale import ScaleParams

#: the band half-width constant c of beta = c / (D * degree)
BAND_C = 0.25

#: points per axis of the grid on which normalize_grad_rms takes the RMS
RMS_GRID_N = 9


def max_degree(scale: ScaleParams) -> int:
    """Largest admissible polynomial degree, ceil(D^{1/4})."""
    return math.ceil(scale.D ** 0.25)


def band_width(scale: ScaleParams, degree: int) -> float:
    """Band half-width beta = c / (D * degree), c = BAND_C."""
    if degree < 1:
        raise ConfigError(f"degree must be >= 1, got {degree}")
    return BAND_C / (scale.D * degree)


# ---------------------------------------------------------------------------
# anisotropic box coordinates
# ---------------------------------------------------------------------------

def anisotropic_forward(scale: ScaleParams, pts: np.ndarray) -> np.ndarray:
    """Unit-box coordinates -> frequency coordinates (lam^{3/2}, lam^{1/2})."""
    out = np.array(pts, dtype=float, copy=True)
    out[..., 0] *= scale.lam ** 1.5
    out[..., 1:] *= scale.lam ** 0.5
    return out


def anisotropic_inverse(scale: ScaleParams, pts: np.ndarray) -> np.ndarray:
    """Frequency coordinates -> unit-box coordinates."""
    out = np.array(pts, dtype=float, copy=True)
    out[..., 0] /= scale.lam ** 1.5
    out[..., 1:] /= scale.lam ** 0.5
    return out


def jacobian(scale: ScaleParams) -> float:
    """Volume factor of the forward map: lam^{3/2} * (lam^{1/2})^3 = lam^3."""
    return scale.lam ** 3


# ---------------------------------------------------------------------------
# degree-d polynomials in 4 variables
# ---------------------------------------------------------------------------

def monomials_up_to(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """All exponent 4-tuples of total degree <= degree, graded lexicographic."""
    return tuple(e for total in range(degree + 1)
                 for e in itertools.product(range(total + 1), repeat=4)
                 if sum(e) == total)


@dataclass
class Poly4:
    """Real polynomial in (t, x1, x2, x3), stored monomial -> coefficient."""

    coeffs: dict[tuple[int, int, int, int], float] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        nz = [sum(e) for e, c in self.coeffs.items() if c != 0.0]
        return max(nz) if nz else 0

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        val = np.zeros(p.shape[:-1])
        for e, c in self.coeffs.items():
            term = np.full(p.shape[:-1], c)
            for axis, k in enumerate(e):
                if k:
                    term = term * p[..., axis] ** k
            val += term
        return val

    def grad(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        g = np.zeros(p.shape)
        for e, c in self.coeffs.items():
            for axis, k in enumerate(e):
                if k == 0:
                    continue
                term = np.full(p.shape[:-1], c * k)
                for ax2, k2 in enumerate(e):
                    kk = k2 - 1 if ax2 == axis else k2
                    if kk:
                        term = term * p[..., ax2] ** kk
                g[..., axis] += term
        return g

    def scaled(self, factor: float) -> "Poly4":
        return Poly4({e: c * factor for e, c in self.coeffs.items()})


def hyperplane_poly(tau: float = 0.0) -> Poly4:
    """P(t, x) = t - tau: the model band with unit gradient."""
    return Poly4({(1, 0, 0, 0): 1.0, (0, 0, 0, 0): -tau})


def midpoint_grid(n: int) -> np.ndarray:
    """Midpoint tensor grid on the unit 4-box, (n^4, 4)."""
    axis = (np.arange(n) + 0.5) / n - 0.5
    mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def normalize_grad_rms(poly: Poly4) -> Poly4:
    """Rescale so the gradient has unit RMS on the RMS_GRID_N^4 midpoint grid."""
    g = poly.grad(midpoint_grid(RMS_GRID_N))
    rms = math.sqrt(float(np.mean(dot(g, g))))
    if rms == 0.0:
        raise ConfigError("gradient vanishes identically on the probe grid")
    return poly.scaled(1.0 / rms)


def random_poly(scale: ScaleParams, degree: int, seed: int,
                index: int = 0) -> Poly4:
    """Seeded Gaussian-coefficient polynomial, unit RMS gradient."""
    if degree < 1:
        raise ConfigError(f"ensemble degree must be >= 1, got {degree}")
    rng = keyed_rng(seed, "shell-poly", repr(scale.lam), degree, index)
    monos = monomials_up_to(degree)
    draws = rng.normal(size=len(monos))
    return normalize_grad_rms(Poly4(dict(zip(monos, draws))))


# ---------------------------------------------------------------------------
# band fractions
# ---------------------------------------------------------------------------

def band_membership(poly: Poly4, pts: np.ndarray, beta: float) -> np.ndarray:
    """|P| <= beta * |grad P|; at critical points membership means P == 0."""
    vals = np.abs(poly(pts))
    gnorm = norm(poly.grad(pts))
    return np.where(gnorm > 0.0, vals <= beta * gnorm, vals == 0.0)


def hyperplane_fraction_exact(beta: float, tau: float = 0.0) -> float:
    """Exact box fraction of the band of t = tau, clipped at the box walls."""
    lo = max(tau - beta, -0.5)
    hi = min(tau + beta, 0.5)
    return max(hi - lo, 0.0)


@dataclass(frozen=True)
class BandFraction(MCEstimate):
    """The box fraction of one band (``value``), with its polynomial's
    degree and the band half-width beta."""
    degree: int
    beta: float


def band_fraction(scale: ScaleParams, poly: Poly4, samples: int, seed: int,
                  tag: str = "band") -> BandFraction:
    """Monte Carlo fraction of the unit box inside the band of one polynomial.

    The (samples, 4) points are drawn whole and tested by ``blockwise``.
    """
    deg = poly.degree
    cap = max_degree(scale)
    if deg < 1:
        raise ConfigError("band fraction needs a nonconstant polynomial")
    if deg > cap:
        raise ConfigError(f"degree {deg} exceeds the cap {cap} at lam={scale.lam}")
    beta = band_width(scale, deg)
    rng = keyed_rng(seed, "shell-fraction", tag, repr(scale.lam), deg)
    (member,) = blockwise(lambda p: (band_membership(poly, p, beta),),
                          rng.uniform(-0.5, 0.5, size=(samples, 4)))
    est = binomial_estimate(int(np.count_nonzero(member)), samples, 1.0)
    return BandFraction(**vars(est), degree=deg, beta=beta)


def ensemble_fractions(scale: ScaleParams, degree: int, n_polys: int,
                       samples: int, seed: int) -> list[BandFraction]:
    """Band fractions for a seeded ensemble of random polynomials."""
    return [band_fraction(scale, random_poly(scale, degree, seed, index),
                          samples, seed, tag=f"ensemble-{index}")
            for index in range(n_polys)]
