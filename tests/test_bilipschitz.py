"""The exact bilipschitz profile, the rounding bound of its audit, and the
bilipschitz experiment built on them.

The audit holds every sampled ``bilipschitz_ratio`` to
``bilipschitz_profile`` at the kernel's own direction angle, within
``profile_bound``.  Three wrong profiles show what the audit catches: one
without the ``1 +`` under the root (the lam -> infinity limit), and two
exact but ill-conditioned forms of the right one.
"""
import math

import numpy as np
import pytest

from decolab import geometry, lab
from decolab.rng import keyed_rng, unit_vectors

EPS = np.finfo(float).eps

#: lam 4 to 16384, the powers of two past the default rungs and two others
LAMS = (4.0, 16.0, 64.0, 100.0, 256.0, 1024.0, 3000.0, 4096.0, 16384.0)


def _no_one(lam, theta):
    """The profile without the 1 under the root: its lam -> inf limit, 1."""
    theta = np.asarray(theta, dtype=float)
    s = 0.5 * theta
    phi = 2.0 * np.arctan2(2.0 * lam * np.sin(s),
                           np.sqrt(4.0 * lam * lam * np.cos(s) ** 2))
    return np.divide(phi, theta, out=np.ones(theta.shape), where=theta != 0.0)


def _asin_form(lam, theta):
    """2 asin(k sin(theta/2)) / theta: asin's slope is about 2 lam near pi."""
    k = 2.0 * lam / math.sqrt(1.0 + 4.0 * lam * lam)
    return 2.0 * np.arcsin(k * np.sin(0.5 * theta)) / theta


def _arccos_form(lam, theta):
    """arccos(n.m) / theta: cancels at small theta, and is 0 at 1e-9."""
    return (np.arccos((4.0 * lam * lam * np.cos(theta) + 1.0)
                      / (4.0 * lam * lam + 1.0)) / theta)


def _pairs(lam, n=4096):
    """n uniform pairs on the sphere of radius lam, then n near-parallel and
    n near-antipodal ones, their angles 1e-9 to 1e-3 from 0 and from pi."""
    rng = keyed_rng(3, "profile-pairs", repr(lam))
    u = unit_vectors(rng, 3 * n)
    v = unit_vectors(rng, 3 * n)
    w = v - geometry.dot(u, v)[:, np.newaxis] * u
    w /= geometry.norm(w)[:, np.newaxis]
    t = 10.0 ** rng.uniform(-9.0, -3.0, size=2 * n)
    t[n:] = math.pi - t[n:]
    v[n:] = (np.cos(t)[:, np.newaxis] * u[n:]
             + np.sin(t)[:, np.newaxis] * w[n:])
    v[n:] /= geometry.norm(v[n:])[:, np.newaxis]
    return lam * u, lam * v


def _worst_gap(profile, lam):
    """Largest |kernel - profile| at the kernel's angle, in bound units."""
    xi, eta = _pairs(lam)
    theta = geometry.angle_between(xi, eta)
    gap = np.abs(geometry.bilipschitz_ratio(xi, eta) - profile(lam, theta))
    return float(np.max(gap / geometry.profile_bound(theta)))


@pytest.mark.parametrize("lam", LAMS)
def test_the_kernel_matches_the_profile_within_the_rounding_bound(lam):
    xi, eta = _pairs(lam)
    theta = geometry.angle_between(xi, eta)
    assert theta.min() < 2e-9 and math.pi - theta.max() < 2e-9
    assert _worst_gap(geometry.bilipschitz_profile, lam) <= 1.0


@pytest.mark.parametrize("profile,from_lam", [
    (_no_one, 4.0), (_arccos_form, 4.0), (_asin_form, 64.0),
], ids=["no-one", "arccos", "asin"])
def test_a_wrong_or_ill_conditioned_profile_leaves_the_bound(profile,
                                                             from_lam):
    # the half-angle form is the one that stays inside at every lam; asin's
    # error near pi grows with lam and passes the bound from lam 64 on
    for lam in LAMS:
        if lam >= from_lam:
            assert _worst_gap(profile, lam) > 1.0, lam


@pytest.mark.parametrize("lam", [2.0] + list(LAMS))
def test_the_profile_ends_in_closed_form(lam):
    k = 2.0 * lam / math.sqrt(1.0 + 4.0 * lam * lam)
    assert geometry.bilipschitz_profile(lam, 0.0) == k
    assert geometry.bilipschitz_profile(lam, math.pi) == pytest.approx(
        2.0 * math.atan(2.0 * lam) / math.pi, rel=4 * EPS, abs=0.0)
    # the limit at 0 is the small-angle end of the curve
    assert geometry.bilipschitz_profile(lam, 1e-8) == pytest.approx(
        k, rel=4 * EPS, abs=0.0)


@pytest.mark.parametrize("lam", [2.0] + list(LAMS))
def test_the_profile_does_not_increase(lam):
    p = geometry.bilipschitz_profile(lam, np.linspace(0.0, math.pi, 200_001))
    # up to its own rounding, 11 u relative at each end of a step
    assert np.all(np.diff(p) <= 11.0 * EPS * p[1:])
    if lam <= 64.0:
        # here each step falls by more than the rounding: strictly falling
        assert np.all(np.diff(p) < 0.0)


@pytest.mark.parametrize("lam", lab.LADDER_LAMS)
def test_the_range_is_the_profile_at_pi_and_its_limit_at_zero(lam):
    rep = lab.run_experiment("bilipschitz", lam)
    assert rep.results == {
        "min_ratio_fixed": 2.0 * math.atan(2.0 * lam) / math.pi,
        "max_ratio_fixed": 2.0 * lam / math.sqrt(1.0 + 4.0 * lam * lam),
        "max_ratio_band": None,
    }
    # the range lies in [1/2, 1) at every lam, so its verdict is observed
    assert [v.status for v in rep.verdicts] == [lab.OBSERVATIONAL, lab.PASS,
                                                lab.OBSERVATIONAL]


def test_the_results_do_not_move_with_the_samples():
    for lam in (64.0, 4096.0):
        reps = [lab.run_experiment("bilipschitz", lam, samples=n)
                for n in (1, 1000, 3 * geometry.BLOCK_ROWS + 7)]
        assert all(r.results == reps[0].results for r in reps)
        assert not any(r.has_fail for r in reps)


def test_the_no_one_mutant_fails_the_audit_at_every_default_rung(monkeypatch):
    monkeypatch.setattr(geometry, "bilipschitz_profile", _no_one)
    for lam in lab.LADDER_LAMS:
        status = {v.name: v.status
                  for v in lab.run_experiment("bilipschitz", lam).verdicts}
        assert status["sampled_ratios_match_profile"] == lab.FAIL
    rep = lab.run_ladder("bilipschitz")
    assert rep.results["per_lam_verdict_failures"] == len(lab.LADDER_LAMS)


def test_no_audit_fails_over_forty_seeds():
    for seed in range(40):
        rep = lab.run_ladder("bilipschitz", seed=seed)
        assert rep.results["per_lam_verdict_failures"] == 0, seed
        assert not lab.run_experiment("bilipschitz", 256.0, seed).has_fail
