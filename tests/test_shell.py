import math

import numpy as np
import pytest

from decolab import scale, shell
from decolab.rng import MCEstimate, binomial_estimate, keyed_rng


S64 = scale.derive(64.0)


def test_max_degree_at_desk_scales():
    # D = lam^(1/12) lies in (1, 2] for desk lambdas, so ceil(D^(1/4)) = 2
    for k in range(1, 13):
        assert shell.max_degree(scale.derive(float(2 ** k))) == 2


def test_band_width_formula_and_guard():
    b = shell.band_width(S64, 2)
    assert b == pytest.approx(shell.BAND_C / (S64.D * 2.0), rel=1e-15)
    assert shell.band_width(S64, 1) == pytest.approx(shell.BAND_C / S64.D,
                                                     rel=1e-15)
    with pytest.raises(shell.ConfigError):
        shell.band_width(S64, 0)


def test_anisotropic_round_trip_and_jacobian():
    rng = keyed_rng(0, "shell-round")
    pts = rng.uniform(-0.5, 0.5, size=(1000, 4))
    fwd = shell.anisotropic_forward(S64, pts)
    back = shell.anisotropic_inverse(S64, fwd)
    assert np.max(np.abs(back - pts)) < 1e-12
    assert fwd[:, 0] == pytest.approx(pts[:, 0] * S64.lam ** 1.5, rel=1e-15)
    assert fwd[:, 2] == pytest.approx(pts[:, 2] * S64.lam ** 0.5, rel=1e-15)
    assert shell.jacobian(S64) == S64.lam ** 3
    # the maps copy rather than mutate
    before = pts.copy()
    shell.anisotropic_forward(S64, pts)
    assert np.array_equal(pts, before)


def test_monomials_counts():
    # multiset coefficient C(4 + d, d) monomials of degree <= d in 4 vars
    assert len(shell.monomials_up_to(0)) == 1
    assert len(shell.monomials_up_to(1)) == 5
    assert len(shell.monomials_up_to(2)) == 15
    assert shell.monomials_up_to(1)[0] == (0, 0, 0, 0)
    mono2 = shell.monomials_up_to(2)
    assert len(set(mono2)) == len(mono2)
    assert all(sum(m) <= 2 for m in mono2)


def test_poly4_eval_and_grad_handcrafted():
    # P = t^2 + 3 x1 x3 - 2
    p = shell.Poly4({(2, 0, 0, 0): 1.0, (0, 1, 0, 1): 3.0,
                     (0, 0, 0, 0): -2.0})
    assert p.degree == 2
    pt = np.array([2.0, 1.0, 5.0, -1.0])
    assert p(pt) == pytest.approx(4.0 - 3.0 - 2.0, abs=1e-14)
    g = p.grad(pt)
    assert np.allclose(g, [4.0, -3.0, 0.0, 3.0], atol=1e-14)


def test_poly4_grad_matches_finite_differences():
    rng = keyed_rng(1, "shell-fd")
    p = shell.random_poly(S64, 2, seed=5)
    pts = rng.uniform(-0.4, 0.4, size=(50, 4))
    g = p.grad(pts)
    h = 1e-6
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = h
        fd = (p(pts + e) - p(pts - e)) / (2.0 * h)
        assert np.max(np.abs(fd - g[:, axis])) < 1e-6


def test_poly4_degree_ignores_zero_coefficients():
    p = shell.Poly4({(3, 0, 0, 0): 0.0, (1, 0, 0, 0): 2.0})
    assert p.degree == 1
    assert shell.Poly4({}).degree == 0
    assert shell.Poly4({}).scaled(3.0).coeffs == {}


def test_scaled_multiplies_values():
    p = shell.hyperplane_poly(0.25)
    q = p.scaled(-2.0)
    pts = keyed_rng(2, "shell-scaled").uniform(-0.5, 0.5, size=(20, 4))
    assert np.allclose(q(pts), -2.0 * p(pts), rtol=1e-15)


def test_hyperplane_poly_is_t_minus_tau():
    p = shell.hyperplane_poly(0.3)
    pt = np.array([0.1, 0.9, -0.9, 0.4])
    assert p(pt) == pytest.approx(-0.2, rel=1e-15)
    assert np.allclose(p.grad(pt), [1.0, 0.0, 0.0, 0.0], atol=0.0)


def test_midpoint_grid_shape_and_range():
    g = shell.midpoint_grid(3)
    assert g.shape == (81, 4)
    assert np.max(np.abs(g)) < 0.5
    assert np.allclose(np.mean(g, axis=0), 0.0, atol=1e-15)


def test_normalize_grad_rms():
    p = shell.Poly4({(1, 0, 0, 0): 4.0})
    n = shell.normalize_grad_rms(p)
    g = n.grad(shell.midpoint_grid(9))
    rms = math.sqrt(float(np.mean(np.sum(g * g, axis=-1))))
    assert rms == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        shell.normalize_grad_rms(shell.Poly4({(0, 0, 0, 0): 7.0}))


def test_random_poly_seeded_and_normalized():
    a = shell.random_poly(S64, 2, seed=9, index=1)
    b = shell.random_poly(S64, 2, seed=9, index=1)
    assert a.coeffs == b.coeffs
    c = shell.random_poly(S64, 2, seed=9, index=2)
    assert a.coeffs != c.coeffs
    g = a.grad(shell.midpoint_grid(9))
    rms = math.sqrt(float(np.mean(np.sum(g * g, axis=-1))))
    assert rms == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(shell.ConfigError):
        shell.random_poly(S64, 0, seed=9)


def test_band_membership_critical_point_convention():
    beta = 0.1
    # P = x1^2: the origin is critical with P = 0, hence in the band
    p = shell.Poly4({(0, 2, 0, 0): 1.0})
    pts = np.array([[0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.1, 0.0, 0.0],
                    [0.0, 0.3, 0.0, 0.0]])
    m = shell.band_membership(p, pts, beta)
    assert m[0]
    # |P| = 0.01 vs beta * |grad| = 0.1 * 0.2: inside
    assert m[1]
    # |P| = 0.09 vs beta * |grad| = 0.1 * 0.6: outside
    assert not m[2]
    # P = x1^2 + 1 is critical at the origin with P = 1: outside
    q = shell.Poly4({(0, 2, 0, 0): 1.0, (0, 0, 0, 0): 1.0})
    assert not shell.band_membership(q, pts, beta)[0]


def test_hyperplane_fraction_exact_clipping():
    assert shell.hyperplane_fraction_exact(0.1) == pytest.approx(0.2)
    assert shell.hyperplane_fraction_exact(0.1, tau=0.45) == pytest.approx(
        0.15)
    assert shell.hyperplane_fraction_exact(0.1, tau=0.7) == 0.0
    assert shell.hyperplane_fraction_exact(2.0) == 1.0


def test_band_fraction_matches_exact_hyperplane():
    p = shell.hyperplane_poly(0.0)
    res = shell.band_fraction(S64, p, samples=200_000, seed=11)
    exact = shell.hyperplane_fraction_exact(res.beta)
    assert abs(res.value - exact) <= 3.0 * res.stderr
    assert res.degree == 1
    assert res.samples == 200_000


def test_a_band_fraction_is_the_binomial_estimate_of_its_hits():
    res = shell.band_fraction(S64, shell.hyperplane_poly(0.3),
                              samples=20_000, seed=11)
    assert isinstance(res, MCEstimate)
    hits = round(res.value * res.samples)
    assert vars(res) == {**vars(binomial_estimate(hits, 20_000, 1.0)),
                         "degree": 1, "beta": shell.band_width(S64, 1)}


def test_band_fraction_rejects_out_of_range_degrees():
    cubic = shell.Poly4({(3, 0, 0, 0): 1.0})
    with pytest.raises(shell.ConfigError):
        shell.band_fraction(S64, cubic, samples=2000, seed=0)
    const = shell.Poly4({(0, 0, 0, 0): 1.0})
    with pytest.raises(shell.ConfigError):
        shell.band_fraction(S64, const, samples=2000, seed=0)


def test_band_fraction_deterministic():
    p = shell.random_poly(S64, 2, seed=13)
    a = shell.band_fraction(S64, p, samples=20_000, seed=13)
    b = shell.band_fraction(S64, p, samples=20_000, seed=13)
    assert a == b


def test_ensemble_fractions_rows():
    rows = shell.ensemble_fractions(S64, degree=2, n_polys=4, samples=5000,
                                    seed=17)
    assert len(rows) == 4
    for row in rows:
        assert row.degree == 2
        assert 0.0 <= row.value <= 1.0
        assert row.beta == pytest.approx(shell.band_width(S64, 2), rel=1e-15)
    assert len({row.value for row in rows}) > 1
