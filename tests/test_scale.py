import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from decolab import scale
from decolab.errors import ConfigError


def test_exponent_table_is_exact_rationals():
    for name, exp in scale.LAMBDA_EXPONENTS.items():
        assert isinstance(exp, Fraction), name
    assert scale.LAMBDA_EXPONENTS["r"] == Fraction(-2, 3)
    assert scale.LAMBDA_EXPONENTS["rho"] == Fraction(-1, 2)
    assert scale.LAMBDA_EXPONENTS["D"] == Fraction(1, 12)
    assert scale.LAMBDA_EXPONENTS["alpha"] == Fraction(-5, 8)
    assert scale.LAMBDA_EXPONENTS["t_half"] == Fraction(-3, 2)
    assert scale.LAMBDA_EXPONENTS["x_half"] == Fraction(-1, 2)


def test_alpha_exponent_consistent_with_its_definition():
    # alpha = c0 * r * sqrt(D) on the exponent level
    expected = (scale.LAMBDA_EXPONENTS["r"]
                + scale.LAMBDA_EXPONENTS["D"] / 2)
    assert scale.LAMBDA_EXPONENTS["alpha"] == expected


def test_rational_exponent_round_trips_through_str():
    x = scale.RationalExponent(-2557, 576)
    assert scale.RationalExponent(str(x)) == x
    assert str(scale.RationalExponent(6, 4)) == "3/2"


@pytest.mark.parametrize("lam", [2.0, 64.0, 256.0, 4096.0])
def test_derive_matches_closed_forms(lam):
    s = scale.derive(lam)
    assert s.r == pytest.approx(lam ** (-2.0 / 3.0), rel=1e-14)
    assert s.rho == pytest.approx(lam ** -0.5, rel=1e-14)
    assert s.D == pytest.approx(lam ** (1.0 / 12.0), rel=1e-14)
    assert s.alpha == pytest.approx(s.c0 * lam ** -0.625, rel=1e-13)
    assert s.t_half == pytest.approx(0.5 * lam ** -1.5, rel=1e-14)
    assert s.x_half == 0.5 * s.rho


def test_derive_rejects_bad_inputs():
    # a typed error that is still the ValueError it always was
    assert issubclass(ConfigError, ValueError)
    for lam, c0 in [(1.0, scale.DEFAULT_C0), (float("nan"), scale.DEFAULT_C0),
                    (float("inf"), scale.DEFAULT_C0), (64.0, 0.0),
                    (64.0, -1.0), (64.0, float("nan"))]:
        with pytest.raises(ConfigError):
            scale.derive(lam, c0=c0)


def test_snapshot_round_trip():
    s = scale.derive(64.0)
    snap = s.snapshot()
    assert snap["lam"] == 64.0
    assert set(snap) == {"lam", "c0", "r", "rho", "D", "alpha",
                         "t_half", "x_half"}
    assert snap["alpha"] == s.alpha


def test_effective_exponent_examples():
    f = scale.effective_lambda_exponent
    assert f(Fraction(1, 3), Fraction(1, 2)) == Fraction(3, 8)
    assert f(Fraction(-9, 2), Fraction(-3)) == Fraction(-19, 4)
    assert f(Fraction(0), Fraction(12)) == 1


@given(
    a=st.fractions(max_denominator=1000),
    b=st.fractions(max_denominator=1000),
    c=st.fractions(max_denominator=1000),
)
def test_effective_exponent_is_linear(a, b, c):
    f = scale.effective_lambda_exponent
    assert f(a + c, b) == f(a, b) + c
    assert f(a, b + c) == f(a, b) + c / 12
    assert f(a, Fraction(0)) == a


def test_alpha_well_below_r_at_desk_scales():
    for k in range(1, 13):
        s = scale.derive(float(2 ** k))
        assert s.alpha < 0.01 * s.r
        assert math.isfinite(s.alpha) and s.alpha > 0
