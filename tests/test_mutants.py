"""Each deterministic verdict that replaced a Monte Carlo z-test can FAIL.

Every case applies one plausible mutant of a package kernel or constant
with ``monkeypatch``, and checks that the verdict PASSes unmutated and
FAILs mutated, at the experiment's defaults.  Nothing in the package
carries a hook for them.
"""
import numpy as np
import pytest

from decolab import lab, overlap, shell, tubes


def _double_beta(monkeypatch):
    membership = shell.band_membership
    monkeypatch.setattr(shell, "band_membership",
                        lambda poly, pts, beta: membership(poly, pts,
                                                           2.0 * beta))


def _covers_without_the_cell_ball(monkeypatch):
    def covers(tube, t, x, r_x):
        s = tube.scale
        r_ax = tubes.norm(x - 2.0 * t[..., np.newaxis] * tube.xi)
        return (r_ax <= s.rho) & (np.abs(t) <= s.t_half)
    monkeypatch.setattr(tubes, "_covers", covers)


def _layer_of_one_eighth(monkeypatch):
    monkeypatch.setattr(tubes, "BOUNDARY_LAYER_HALF_HEIGHT", 1.0 / 8.0)


def _profile_doubled(monkeypatch):
    profile = overlap.overlap_profile
    monkeypatch.setattr(overlap, "overlap_profile",
                        lambda delta, truncated=False:
                        2.0 * profile(delta, truncated))


MUTANTS = [
    ("hyperplane-shell", "matches_exact_fraction", _double_beta),
    ("nested-ball", "matches_closed_form", _covers_without_the_cell_ball),
    ("boundary-layer", "matches_exact_fraction", _layer_of_one_eighth),
    ("pair-overlap", "exact_within_bound", _profile_doubled),
]


def _status(name, verdict):
    return {v.name: v.status
            for v in lab.run_experiment(name).verdicts}[verdict]


@pytest.mark.parametrize("name,verdict,mutate", MUTANTS,
                         ids=[name for name, _, _ in MUTANTS])
def test_a_mutant_fails_the_verdict(name, verdict, mutate, monkeypatch):
    assert _status(name, verdict) == lab.PASS
    mutate(monkeypatch)
    assert _status(name, verdict) == lab.FAIL
