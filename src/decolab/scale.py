"""Scale bookkeeping: every length in the laboratory derives from one frequency.

For a frequency scale lam >= 2 the derived quantities are

    r      = lam**(-2/3)          cap radius on the unit sphere of directions
    rho    = lam**(-1/2)          tube cross-section radius
    D      = lam**(1/12)          degree / multiplicity budget
    alpha  = c0 * r * sqrt(D)     fine angular resolution, = c0 * lam**(-5/8)
    t_half = lam**(-3/2) / 2      half-height of the space-time cell in t
    x_half = lam**(-1/2) / 2      half-width of the space-time cell in x

c0 is a small safety constant (default 1e-3) so that alpha sits well below r
at desk scales.  Exponent arithmetic is kept exact as rationals; floats enter
only when a concrete scale is instantiated.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import ConfigError

# A rational lambda-exponent: reduced numerator/denominator, exact add/compare,
# lossless round-trip through str().  fractions.Fraction satisfies the whole
# contract, so it is used directly rather than wrapped.
RationalExponent = Fraction

#: exact lambda-exponents of the derived lengths, used by ladder tests
LAMBDA_EXPONENTS: dict[str, Fraction] = {
    "r": Fraction(-2, 3),
    "rho": Fraction(-1, 2),
    "D": Fraction(1, 12),
    "alpha": Fraction(-5, 8),
    "t_half": Fraction(-3, 2),
    "x_half": Fraction(-1, 2),
}

DEFAULT_C0 = 1e-3


@dataclass(frozen=True)
class ScaleParams:
    """Concrete numeric scales for one frequency lam."""

    lam: float
    c0: float
    r: float
    rho: float
    D: float
    alpha: float
    t_half: float
    x_half: float

    def snapshot(self) -> dict[str, float]:
        """Plain-dict copy for report headers."""
        return asdict(self)


def derive(lam: float, c0: float = DEFAULT_C0) -> ScaleParams:
    """Derive all scales from the frequency ``lam``.

    lam must be >= 2: below that the cap radius r = lam**(-2/3) approaches 1
    and the sphere geometry degenerates.  A lam or c0 out of range is a
    ConfigError.
    """
    if not math.isfinite(lam) or lam < 2:
        raise ConfigError(f"frequency scale must be >= 2, got {lam!r}")
    if not math.isfinite(c0) or c0 <= 0:
        raise ConfigError(f"c0 must be positive, got {c0!r}")
    r = lam ** (-2.0 / 3.0)
    rho = lam ** (-0.5)
    D = lam ** (1.0 / 12.0)
    alpha = c0 * r * math.sqrt(D)
    t_half = 0.5 * lam ** (-1.5)
    x_half = 0.5 * rho
    return ScaleParams(
        lam=float(lam), c0=float(c0), r=r, rho=rho, D=D,
        alpha=alpha, t_half=t_half, x_half=x_half,
    )


def effective_lambda_exponent(
    sigma_lambda: Fraction, sigma_d: Fraction
) -> Fraction:
    """Collapse a (lambda-exponent, D-exponent) pair onto the lambda axis.

    D = lam**(1/12), so a D-exponent contributes one twelfth of itself:
    effective = sigma_lambda + sigma_d / 12.  Exact rational arithmetic.
    """
    return Fraction(sigma_lambda) + Fraction(sigma_d) / 12
