import functools
import math
from dataclasses import replace

import numpy as np
import pytest

import tube_oracle
from decolab import caps, lab, overlap, scale, tubes
from decolab.errors import ConfigError
from decolab.geometry import BLOCK_ROWS
from decolab.rng import MCEstimate, binomial_estimate, keyed_rng


def _clustered_family(lam=256.0, n=24, spread=0.5, key="tubes-cluster"):
    """Synthetic dense family: n directions inside a spread*alpha cone."""
    s = scale.derive(lam)
    dirs = caps.clustered_dirs(keyed_rng(11, key, n),
                               np.array([0.0, 0.0, 1.0]), n, spread * s.alpha)
    return caps.CapFamily(scale=s, centers=dirs)


@pytest.fixture(scope="module")
def fam():
    return _clustered_family()


def test_membership_handcrafted_points():
    s = scale.derive(256.0)
    tube = tubes.Tube(scale=s, xi=np.array([s.lam, 0.0, 0.0]))
    # cell center is inside the full tube but excised from the truncated one
    assert tubes.membership(tube, np.array([0.0]), np.zeros((1, 3)))[0]
    trunc = tubes.Tube(scale=s, xi=tube.xi, truncated=True)
    assert not tubes.membership(trunc, np.array([0.0]), np.zeros((1, 3)))[0]
    x = np.array([[0.0, 0.3 * s.rho, 0.0]])
    assert tubes.membership(trunc, np.array([0.0]), x)[0]
    # outside the time slab, outside the spatial ball
    assert not tubes.membership(tube, np.array([2.0 * s.t_half]),
                                np.zeros((1, 3)))[0]
    far = np.array([[0.9 * s.rho, 0.0, 0.0]])   # 0.9 rho = 1.8 x_half
    assert not tubes.membership(tube, np.array([0.0]), far)[0]


def test_membership_follows_the_moving_axis():
    s = scale.derive(256.0)
    xi = np.array([s.lam, 0.0, 0.0])
    tube = tubes.Tube(scale=s, xi=xi)
    t = 0.8 * s.t_half
    on_axis = 2.0 * t * xi
    # the moving center at t = 0.8 t_half sits at 0.8 rho > x_half, so the
    # point is axial-true but cell-false
    assert np.linalg.norm(on_axis) > s.x_half
    assert not tubes.membership(tube, np.array([t]), on_axis[None, :])[0]


def test_volume_closed_forms():
    s = scale.derive(64.0)
    assert tubes.cylinder_volume(s) == pytest.approx(
        (4.0 / 3.0) * math.pi * s.rho ** 3 * s.lam ** -1.5, rel=1e-13)
    assert tubes.nested_ball_volume(s) == pytest.approx(
        tubes.cylinder_volume(s) / 8.0, rel=1e-13)


@pytest.mark.parametrize("hits", [0, 250, 1000])
def test_a_binomial_estimate_scales_the_hit_fraction_and_its_stderr(hits):
    est = binomial_estimate(hits, 1000, 8.0)
    assert est == MCEstimate(value=8.0 * hits / 1000,
                             stderr=8.0 * math.sqrt(
                                 hits * (1000 - hits) / 1000 ** 3),
                             samples=1000)
    # all in or all out: no spread, so zero stderr
    assert (est.stderr == 0.0) == (hits in (0, 1000))


def test_mc_volume_is_deterministic_and_guarded():
    s = scale.derive(64.0)
    tube = tubes.Tube(scale=s, xi=np.array([s.lam, 0.0, 0.0]), cap_index=0)
    a = tubes.mc_volume(tube, 5000, seed=3)
    b = tubes.mc_volume(tube, 5000, seed=3)
    assert a == b
    c = tubes.mc_volume(tube, 5000, seed=4)
    assert c != a
    with pytest.raises(tubes.ConfigError):
        tubes.mc_volume(tube, 10, seed=3)


def test_static_tube_matches_nested_ball_volume():
    s = scale.derive(256.0)
    tube = tubes.Tube(scale=s, xi=np.zeros(3), cap_index=-1)
    est = tubes.mc_volume(tube, 100_000, seed=5)
    assert abs(est.value - tubes.nested_ball_volume(s)) <= 3.0 * est.stderr


def test_pair_overlap_bound_branches():
    s = scale.derive(256.0)
    time_branch = s.rho ** 3 * s.lam ** -1.5
    assert tubes.pair_overlap_bound(s, 0.0) == time_branch
    # tiny separation still clips to the time branch
    assert tubes.pair_overlap_bound(s, 1e-9) == time_branch
    # the branches cross at delta = rho * sqrt(lam) = 1
    lo = tubes.pair_overlap_bound(s, 1.0 - 1e-12)
    hi = tubes.pair_overlap_bound(s, 1.0)
    assert abs(lo - hi) <= 1e-12 * hi
    # angular branch decays like 1/delta
    b1 = tubes.pair_overlap_bound(s, 2.0)
    b2 = tubes.pair_overlap_bound(s, 4.0)
    assert b1 == pytest.approx(2.0 * b2, rel=1e-12)
    with pytest.raises(ValueError):
        tubes.pair_overlap_bound(s, -1.0)


@pytest.mark.parametrize("call", [
    lambda fam: tubes.pair_overlap_bound(scale.derive(64.0), math.nan),
    lambda fam: tubes.density_check(
        caps.CapFamily(scale=fam.scale, centers=np.zeros((0, 3)))),
], ids=["nan-separation", "empty-family"])
def test_bad_input_raises_the_typed_config_error(fam, call):
    with pytest.raises(ConfigError) as err:
        call(fam)
    assert isinstance(err.value, ValueError)


def test_mc_pair_overlap_self_is_volume():
    s = scale.derive(64.0)
    tube = tubes.Tube(scale=s, xi=np.array([s.lam, 0.0, 0.0]), cap_index=0)
    vol = tubes.mc_volume(tube, 50_000, seed=7)
    ovl = tubes.mc_pair_overlap(tube, tube, 50_000, seed=7)
    assert abs(vol.value - ovl.value) <= 4.0 * (vol.stderr + ovl.stderr)


@pytest.mark.parametrize("samples", [
    tubes.MIN_SAMPLES, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
    3 * BLOCK_ROWS + 7])
@pytest.mark.parametrize("truncated", [(False, False), (True, True),
                                       (False, True)],
                         ids=["full", "truncated", "mixed"])
def test_blocked_monte_carlo_equals_the_whole_array_oracle(fam, samples,
                                                           truncated):
    # the draws are placed and tested a block of rows at a time; the last
    # block is short, full, one row, or a block and seven rows past it
    t1, t2 = (replace(tubes.tube_for_cap(fam, i), truncated=trunc)
              for i, trunc in zip((0, 5), truncated))
    envelope = tubes.cylinder_volume(fam.scale)
    vol = tubes.mc_volume(t1, samples, seed=13)
    assert vol == tube_oracle.mc_volume(t1, samples, seed=13)
    both = tubes.mc_pair_overlap(t1, t2, samples, seed=13)
    assert both == tube_oracle.mc_pair_overlap(t1, t2, samples, seed=13)
    # neither stream lands all in or all out
    assert 0.0 < both.value < envelope and 0.0 < vol.value < envelope


def test_tube_for_cap_reads_one_row(monkeypatch):
    family = caps.build_lattice(scale.derive(64.0))
    rows = family.xi()

    def whole_array(self):
        raise AssertionError("tube_for_cap built the whole xi array")
    monkeypatch.setattr(caps.CapFamily, "xi", whole_array)
    for i in (0, 1, len(family) // 2, len(family) - 1):
        tube = tubes.tube_for_cap(family, i)
        assert tube.xi.tobytes() == rows[i].tobytes()    # bit for bit
        assert (tube.cap_index, tube.truncated) == (i, False)


def test_mc_pair_overlap_rejects_mixed_scales():
    t1 = tubes.Tube(scale=scale.derive(64.0), xi=np.zeros(3))
    t2 = tubes.Tube(scale=scale.derive(128.0), xi=np.zeros(3))
    with pytest.raises(tubes.ConfigError):
        tubes.mc_pair_overlap(t1, t2, 5000, seed=0)
    t3 = tubes.Tube(scale=scale.derive(64.0), xi=np.ones(3))
    with pytest.raises(tubes.ConfigError):
        tubes.mc_pair_overlap(t1, t3, 10, seed=0)


def test_multiplicity_counts_handcrafted(fam):
    s = fam.scale
    xis = fam.xi()
    # interior core point at t = 0 lies in every tube of the cluster
    pt_x = np.array([[0.35 * s.rho, 0.0, 0.0]])
    m = tubes.multiplicity_counts(s, xis, True, np.array([0.0]), pt_x)
    assert m[0] == len(fam)
    # the excised core kills the same point for the truncated count at x ~ 0
    m0 = tubes.multiplicity_counts(s, xis, True, np.array([0.0]),
                                   np.zeros((1, 3)))
    assert m0[0] == 0
    # out of the time slab: count is zero regardless of geometry
    m1 = tubes.multiplicity_counts(s, xis, False, np.array([3.0 * s.t_half]),
                                   pt_x)
    assert m1[0] == 0
    # late-time corner away from the cluster axis (axis ~ e3): no tube left
    late = np.array([0.999 * s.t_half])
    corner = np.array([[0.499 * s.rho, 0.0, 0.0]])
    m2 = tubes.multiplicity_counts(s, xis, False, late, corner)
    assert m2[0] == 0


def test_density_check_and_guards(fam):
    assert tubes.density_check(fam)
    sparse = caps.build_lattice(scale.derive(64.0))
    assert not tubes.density_check(sparse)
    empty = caps.CapFamily(scale=fam.scale, centers=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        tubes.density_check(empty)


def test_multiplicity_experiment_statistics(fam):
    res = tubes.multiplicity_experiment(fam, samples=4000, seed=13)
    assert res.samples == 4000
    assert res.m_min >= 1
    assert res.m_max <= len(fam)
    # the weighted mean is a float quotient, so allow rounding slack
    assert res.m_min - 1e-9 <= res.m_mean_weighted <= res.m_max + 1e-9
    # threshold c*D < 1 at desk scale, and M >= 1 always
    assert res.threshold < 1.0
    assert res.fraction_below == 0.0
    assert 0.0 < res.union_ratio <= fam.scale.D
    again = tubes.multiplicity_experiment(fam, samples=4000, seed=13)
    assert res == again


def test_multiplicity_experiment_guards(fam):
    sparse = caps.build_lattice(scale.derive(64.0))
    with pytest.raises(tubes.DensityError):
        tubes.multiplicity_experiment(sparse, samples=2000, seed=0)
    with pytest.raises(tubes.ConfigError):
        tubes.multiplicity_experiment(fam, samples=10, seed=0)


def test_pointwise_cs_is_exact(fam):
    s = fam.scale
    xis = fam.xi()
    rng = keyed_rng(17, "tubes-cs")
    for _ in range(200):
        amps = rng.normal(size=len(fam)) + 1j * rng.normal(size=len(fam))
        t = float(rng.uniform(-s.t_half, s.t_half))
        x = s.x_half * rng.uniform(-1.0, 1.0, size=3)
        chk = tubes.pointwise_cs_check(s, xis, True, amps, t, x)
        assert chk.ok
        assert chk.multiplicity >= 0
    # a point no tube contains gives the trivial 0 <= 0 instance
    chk = tubes.pointwise_cs_check(s, xis, False, amps, 10.0 * s.t_half,
                                   np.zeros(3))
    assert chk.multiplicity == 0 and chk.lhs == 0.0 and chk.rhs == 0.0
    assert chk.ok


def _coverage_points(s, xis, key):
    """Random cell points, then as many placed on some tube's rho boundary.

    A boundary point sits rho (1 + j eps), |j| <= 3 ulps, from the axis
    2 t xi of a random tube, on the side facing the origin, at |t| in
    [t_half/2, t_half] so that it lies in the cell.  Returns
    t, x and, per boundary point, the index of its tube.
    """
    rng = keyed_rng(23, key)
    n = 300
    t = rng.uniform(-s.t_half, s.t_half, size=n)
    x = s.x_half * rng.uniform(-1.0, 1.0, size=(n, 3))
    tb = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.0, size=n) \
        * s.t_half
    k = rng.integers(0, len(xis), size=n)
    axis = 2.0 * tb[:, None] * xis[k]
    r = s.rho * (1.0 + rng.integers(-3, 4, size=(n, 1)) * np.finfo(float).eps)
    xb = axis - r * axis / np.linalg.norm(axis, axis=1, keepdims=True)
    return np.concatenate([t, tb]), np.concatenate([x, xb]), k


@pytest.mark.parametrize("truncated", [False, True])
@pytest.mark.parametrize("which", ["cluster", "lattice"])
def test_every_coverage_path_is_membership(fam, which, truncated):
    # the lam-64 lattice has more than COUNT_CHUNK tubes, so blocks split
    family = fam if which == "cluster" else _lab_family(64.0)
    s, xis = family.scale, family.xi()
    t, x, k = _coverage_points(s, xis, which)
    n = len(k)
    per_tube = sum(tubes.membership(tubes.Tube(s, xi, truncated), t, x)
                   .astype(np.int64) for xi in xis)
    m = tubes.multiplicity_counts(s, xis, truncated, t, x)
    assert np.array_equal(m, per_tube)
    # the boundary points fall on both sides of their own tube's boundary
    own = tubes.membership(tubes.Tube(s, xis[k], truncated), t[n:], x[n:])
    assert 0 < np.count_nonzero(own) < n
    amps = np.ones(len(xis), dtype=complex)
    for k in range(0, len(t), 7):
        chk = tubes.pointwise_cs_check(s, xis, truncated, amps, t[k], x[k])
        assert chk.multiplicity == m[k]


def test_boundary_layer_fraction():
    # the sampled layer that acceptance #3 z-tests against the exact 1/8
    s = scale.derive(256.0)
    est = tube_oracle.boundary_layer_mc(s, 100_000, seed=19)
    sigma = math.sqrt(0.125 * 0.875 / 100_000)
    assert abs(est.value - tubes.BOUNDARY_LAYER_FRACTION) <= 3.0 * sigma
    assert lab.run_experiment("boundary-layer", 256.0).results["fraction"] \
        == tubes.BOUNDARY_LAYER_FRACTION


def test_l2_sum_guards():
    s = scale.derive(64.0)
    single = caps.CapFamily(scale=s, centers=np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(tubes.ConfigError):
        tubes.l2_sum(single)
    huge = caps.CapFamily(scale=s, centers=np.zeros((10_001, 3)))
    with pytest.raises(tubes.ConfigError):
        tubes.l2_sum(huge)


def _dense_band_counts(family):
    """Oracle: unordered pairs per dyadic band from blocked arccos angles."""
    n, alpha = len(family), family.scale.alpha
    centers = family.centers
    jmax = max(1, int(math.ceil(math.log(math.pi / alpha, 2.0))) + 1)
    pair_counts = np.zeros(jmax + 1, dtype=np.int64)
    for lo in range(0, n, 256):
        blk = centers[lo:lo + 256]
        ang = np.arccos(np.clip(blk @ centers.T, -1.0, 1.0))
        # count each unordered pair once: row gi against columns > gi
        for bi in range(blk.shape[0]):
            row = ang[bi, lo + bi + 1:]
            idx = np.floor(np.log2(np.maximum(row, 1e-300) / alpha)).astype(int)
            pair_counts += np.bincount(np.clip(idx, 0, jmax),
                                       minlength=jmax + 1)
    return pair_counts


@functools.lru_cache(maxsize=None)
def _lab_family(lam):
    """The family the l2-sum experiment sums over: a cone past 8000 caps."""
    fam = caps.build_lattice(scale.derive(lam))
    if len(fam) > 8000:
        fam = fam.restrict_to_cone(fam.centers[0],
                                   2.0 * math.sqrt(2000.0 / len(fam)))
    return fam


def test_l2_sum_bookkeeping():
    fam = caps.build_lattice(scale.derive(8.0))
    res = tubes.l2_sum(fam)
    lam3 = fam.scale.lam ** 3
    assert res.tube_volume == overlap.overlap_profile(0.0, True) / lam3
    assert res.diagonal == len(fam) * res.tube_volume
    assert res.total == res.diagonal + res.off_diagonal
    assert res.off_diagonal == 2.0 * np.sum(res.band_sums)
    assert res.pair_counts.tolist() == _dense_band_counts(fam).tolist()
    # every pair overlaps by between f(pi) and f(0), and a cell's error
    # is at most half of that range
    f_pi = overlap.overlap_profile(math.pi, True) / lam3
    pairs = res.pair_counts
    assert np.all(pairs * f_pi <= res.band_sums)
    assert np.all(res.band_sums <= pairs * res.tube_volume)
    assert np.all(res.band_errors <= pairs * 0.5 * (res.tube_volume - f_pi))
    assert np.all((res.band_errors > 0.0) == (pairs > 0))
    assert res.error_bound > 2.0 * np.sum(res.band_errors)
    again = tubes.l2_sum(fam)
    assert (again.total, again.error_bound) == (res.total, res.error_bound)


@pytest.mark.parametrize("lam", [8.0, 16.0, 64.0, 256.0, 4096.0])
def test_band_pair_counts_match_dense_oracle(lam):
    fam = _lab_family(lam)
    edges, counts = tubes.band_cells(fam)
    assert counts.sum(axis=1).tolist() == _dense_band_counts(fam).tolist()
    assert counts.sum() == len(fam) * (len(fam) - 1) // 2
    assert edges.shape == (len(counts), tubes.L2_CELLS + 1)
    assert np.all(np.diff(edges.ravel()) >= 0.0) and edges[-1, -1] == math.pi


LADDER = [float(2 ** k) for k in range(3, 13)]


@pytest.mark.parametrize("lam", LADDER)
def test_l2_sum_has_a_row_for_every_band_with_pairs(lam, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("l2-sum drew a Monte Carlo sample")
    for module, name in ((tubes, "keyed_rng"), (tubes, "mc_volume"),
                         (tubes, "mc_pair_overlap"), (lab, "keyed_rng")):
        monkeypatch.setattr(module, name, no_draws)
    fam = _lab_family(lam)
    monkeypatch.setattr(caps, "build_lattice", lambda s: fam)
    rep = lab.run_experiment("l2-sum", lam)
    assert rep.params["samples"] == 0
    rows = rep.results["rows"]
    # the rows hold every pair, and no row is empty
    assert sum(row["pair_count"] for row in rows) \
        == len(fam) * (len(fam) - 1) // 2
    assert all(row["pair_count"] > 0 for row in rows)
    js = [int(row["pair"].removeprefix("band-")) for row in rows]
    assert js == sorted(set(js))
    if lam == 16.0:             # the band a sampled panel once missed
        assert (js[0], rows[0]["pair_count"]) == (9, 2)
    # 16 cells per band bound the sum to 1.7e-3 of itself at lam 16 and 64
    assert 0.0 < rep.results["error_bound"] <= 2e-3 * rep.results["total"]
