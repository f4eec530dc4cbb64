"""The exact overlap profile, and the Monte Carlo estimators audited by it.

``overlap.overlap_profile`` is lam^3 |T cap T'| as a function of the angle
between the caps.  Its ends are pinned to the closed 1-D volumes, and
``tubes.mc_volume`` and ``tubes.mc_pair_overlap`` are z-tested against it.
The tube-volume experiment reports the profile itself.
"""
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from decolab import caps, lab, overlap, scale, tubes
from decolab.errors import ConfigError


# lam^3 |T| from the closed 1-D form of the two-ball lens, full and truncated
VOLUME_LAM3 = {False: 0.4587220422766958, True: 0.396785419272855}
# lam^3 |T cap T'| for antipodal caps
ANTIPODAL_LAM3 = {False: 0.39822089230636654, True: 0.3397325529205425}


@pytest.mark.parametrize("truncated", [False, True])
def test_overlap_profile_pins(truncated, monkeypatch):
    f = functools.partial(overlap.overlap_profile, truncated=truncated)
    assert f(0.0) == pytest.approx(VOLUME_LAM3[truncated], rel=1e-12)
    assert f(math.pi) == pytest.approx(ANTIPODAL_LAM3[truncated],
                                       rel=overlap.PROFILE_RTOL)
    delta = np.linspace(0.0, math.pi, 2001)
    coarse = f(delta)
    assert np.all(np.diff(coarse) <= 0.0)
    n_r, n_m = overlap._PROFILE_NODES
    monkeypatch.setattr(overlap, "_PROFILE_NODES", (4 * n_r, 4 * n_m))
    fine = f(delta[::10])
    assert np.max(np.abs(coarse[::10] - fine) / fine) <= overlap.PROFILE_RTOL
    with pytest.raises(ConfigError):
        f(np.array([0.5, 4.0]))


def _audit_z_scores(profile, samples=20_000):
    """z of mc_volume and mc_pair_overlap against profile / lam^3.

    Full and truncated tubes at lam 64 and 4096, the pairs about 1.5 r, 1
    and 3 apart; each estimate reads its own keyed stream.
    """
    z = []
    for lam in (64.0, 4096.0):
        s = scale.derive(lam)
        for truncated in (False, True):
            u = tubes.Tube(s, lam * np.array([0.0, 0.0, 1.0]), truncated, 0)
            est = tubes.mc_volume(u, samples, seed=31)
            z.append((est.value - profile(0.0, truncated) / lam ** 3)
                     / est.stderr)
            for k, delta in enumerate((1.5 * s.r, 1.0, 3.0), start=1):
                v = tubes.Tube(s, lam * np.array(
                    [math.sin(delta), 0.0, math.cos(delta)]), truncated, k)
                est = tubes.mc_pair_overlap(u, v, samples, seed=31)
                z.append((est.value - profile(delta, truncated) / lam ** 3)
                         / est.stderr)
    return np.abs(z)


def test_monte_carlo_estimators_match_the_profile():
    assert np.max(_audit_z_scores(overlap.overlap_profile)) <= 3.0
    # a profile that ignores the truncation is caught
    ignores = _audit_z_scores(lambda d, truncated: overlap.overlap_profile(d))
    assert np.max(ignores) > 3.0


@pytest.mark.parametrize("seed,samples", [(7, 1000), (11, 4096), (3, 30_000)])
def test_tube_volume_reports_the_profile_whatever_it_draws(seed, samples):
    for lam in lab.LADDER_LAMS:
        rep = lab.run_experiment("tube-volume", lam, seed, samples)
        assert rep.results["volume"] == overlap.overlap_profile(0.0) / lam ** 3
        assert (rep.results["volume_truncated"]
                == overlap.overlap_profile(0.0, True) / lam ** 3)
        assert not rep.has_fail
        assert [v.status for v in rep.verdicts if v.name.endswith("_audit")
                ] == [lab.OBSERVATIONAL, lab.OBSERVATIONAL]


def test_the_tube_volume_ladder_is_an_identity_and_builds_no_lattice(
        monkeypatch):
    def no_lattice(*args):
        raise AssertionError("tube-volume laid down the cap lattice")
    monkeypatch.setattr(caps, "build_lattice", no_lattice)
    monkeypatch.setattr(caps, "fibonacci_sphere", no_lattice)
    rep = lab.run_ladder("tube-volume")
    assert abs(rep.results["slope"] + 3.0) <= 1e-12
    assert rep.results["max_log_residual"] < 1e-12
    assert rep.results["per_lam_verdict_failures"] == 0


def test_the_pair_overlap_constant_is_pi_times_the_cell_volume():
    # overlap / bound = max(1, delta) f(delta) <= pi f(0) for delta <= pi
    assert tubes.PAIR_OVERLAP_C == pytest.approx(
        math.pi * overlap.cell_volume(), rel=1e-14)
    delta = np.linspace(0.0, math.pi, 2001)
    ratio = np.maximum(1.0, delta) * overlap.overlap_profile(delta)
    assert np.max(ratio) <= tubes.PAIR_OVERLAP_C
    # the farthest caps exceed the bound without C, by the same factor at
    # every lam: the profile at pi times pi
    assert 1.24 <= ratio[-1] <= 1.26


@pytest.mark.parametrize("n", overlap._PROFILE_NODES)
def test_the_cached_rules_are_read_only_and_a_fresh_computation(n):
    x, w = overlap._gauss_legendre(n)
    assert overlap._gauss_legendre(n)[0] is x
    assert not (x.flags.writeable or w.flags.writeable)
    fresh = overlap._gauss_legendre.__wrapped__(n)
    assert np.array_equal(x, fresh[0]) and np.array_equal(w, fresh[1])
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("truncated", [False, True])
def test_the_cached_cell_volume_is_the_profile_at_zero(truncated):
    overlap.cell_volume.cache_clear()
    vol = overlap.cell_volume(truncated)
    assert vol == float(overlap.overlap_profile(0.0, truncated))
    assert type(vol) is float and overlap.cell_volume(truncated) is vol


def test_a_ladder_then_a_run_in_one_process_give_the_golden_bytes():
    # the ladder fills the caches; the run after it reads them
    overlap.cell_volume.cache_clear()
    overlap._gauss_legendre.cache_clear()
    golden = (Path(__file__).parent / "golden" / "tube-volume.json").read_text()
    doc = json.loads(golden)
    assert not lab.run_ladder("tube-volume").has_fail
    assert overlap.cell_volume.cache_info().currsize == 2
    rep = lab.run_experiment("tube-volume", doc["lam"], doc["seed"],
                             doc["params"]["samples"])
    assert rep.canonical_json() == golden
