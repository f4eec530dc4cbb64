import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import spiral_oracle
from decolab import caps, lab, scale
from decolab.geometry import BLOCK_ROWS
from decolab.rng import keyed_rng, unit_vectors


@pytest.fixture(scope="module")
def family64():
    return caps.build_lattice(scale.derive(64.0))


def test_chord_endpoints():
    assert caps.chord(0.0) == 0.0
    assert caps.chord(math.pi) == pytest.approx(2.0, rel=1e-15)
    assert caps.chord(math.pi / 3.0) == pytest.approx(1.0, rel=1e-15)


def test_fibonacci_sphere_unit_rows_and_count():
    pts = caps.fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        caps.fibonacci_sphere(0)


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               3 * BLOCK_ROWS + 7])
def test_fibonacci_sphere_blocks_equal_the_unblocked_formulas(n):
    whole = caps._spiral_rows(np.arange(n, dtype=float), n)
    assert caps.fibonacci_sphere(n).tobytes() == whole.tobytes()


def test_build_lattice_separation_invariant(family64):
    # every surviving pair is >= r apart: exhaustive over pairs via the
    # nearest-neighbour minimum
    assert caps.min_separation(family64) >= family64.scale.r


def test_build_lattice_covering_invariant(family64):
    rng = keyed_rng(0, "caps-probe")
    probes = rng.normal(size=(20000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    assert caps.covering_probe(family64, probes) <= 2.0 * family64.scale.r


def test_build_lattice_count_window(family64):
    lam = family64.scale.lam
    n = len(family64)
    assert lam ** (4.0 / 3.0) <= n <= 16.0 * lam ** (4.0 / 3.0)


def test_build_lattice_is_deterministic():
    a = caps.build_lattice(scale.derive(64.0))
    b = caps.build_lattice(scale.derive(64.0))
    assert np.array_equal(a.centers, b.centers)


def test_degenerate_scale_rejected():
    # derive() never yields r >= 1, so force one through the record type
    s = scale.derive(64.0)
    bad = scale.ScaleParams(lam=s.lam, c0=s.c0, r=1.5, rho=s.rho, D=s.D,
                            alpha=s.alpha, t_half=s.t_half, x_half=s.x_half)
    with pytest.raises(caps.DegenerateScaleError):
        caps.build_lattice(bad)


def test_spiral_size_guard_fires_past_lam_2_14():
    assert caps.spiral_size(scale.derive(2.0 ** 14)) <= caps.MAX_SPIRAL_POINTS
    with pytest.raises(caps.ConfigError):
        caps.spiral_size(scale.derive(2.0 ** 15))


def _forbidden(*args, **kwargs):
    raise AssertionError("called where it must not be")


def test_build_lattice_beyond_the_guard_allocates_nothing(monkeypatch):
    monkeypatch.setattr(caps, "fibonacci_sphere", _forbidden)
    monkeypatch.setattr(caps, "_spiral_rows", _forbidden)
    monkeypatch.setattr(caps, "_upper_sq_chords", _forbidden)
    with pytest.raises(caps.ConfigError, match="134217728 points"):
        caps.build_lattice(scale.derive(2.0 ** 18))


def _kd_nearest_chord(points, bound=math.inf):
    """Oracle: the smallest second-neighbour distance of a k=2 query.

    A finite ``bound`` only makes the query cheaper: a nearest chord past
    it would come back inf and fail the comparison."""
    if len(points) < 2:
        return math.inf
    tree = cKDTree(points, balanced_tree=False)
    dist, _ = tree.query(points, k=2, workers=-1, distance_upper_bound=bound)
    return float(np.min(dist[:, 1]))


@pytest.mark.parametrize("lam", sorted({2.0, *lab.PROBE_LAMS,
                                        *lab.LADDER_LAMS}))
def test_spiral_nearest_chord_equals_the_kd_query(lam):
    # lam 2, every probe rung and every cap-lattice rung
    s = scale.derive(lam)
    fam = caps.build_lattice(s)
    assert len(fam) == caps.spiral_size(s)
    kd = _kd_nearest_chord(fam.centers, 1.125 * caps.chord(s.r))
    assert fam.nearest_chord == kd
    assert caps.min_separation(fam) == 2.0 * math.asin(min(1.0, 0.5 * kd))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30_000))
def test_spiral_nearest_chord_equals_the_kd_query_at_any_size(n):
    spiral = caps.fibonacci_sphere(n)
    assert caps.spiral_nearest_chord(n) == _kd_nearest_chord(spiral)


def test_every_supported_spiral_is_past_chord_r():
    # build_lattice's check never fires: 200 log-spaced lams over [2, 1024]
    # and every probe and cap-lattice rung (CI's lam 4096-16384 ladder
    # covers the top of the range)
    lams = {*np.geomspace(2.0, 1024.0, 200).tolist(), *lab.PROBE_LAMS,
            *lab.LADDER_LAMS}
    close = []
    for lam in sorted(lams):
        s = scale.derive(lam)
        if not caps.spiral_nearest_chord(caps.spiral_size(s)) > caps.chord(s.r):
            close.append(lam)
    assert close == []


def test_whole_lattices_never_scan_all_pairs(monkeypatch):
    # the all-pairs scan of the lam-4096 lattice would be 1.4e11 pairs
    monkeypatch.setattr(caps, "_upper_sq_chords", _forbidden)
    fam = caps.build_lattice(scale.derive(1024.0))
    assert caps.min_separation(fam) >= fam.scale.r
    lab.run_experiment("probe-curve", 64.0)
    lab.run_experiment("cap-lattice", 4096.0)


def _kd_covering_chord(points, probes):
    """Oracle: the largest nearest-neighbour distance of a k=1 query."""
    dist, _ = cKDTree(points, balanced_tree=False).query(probes, k=1)
    return float(np.max(dist))


def _probe_sets(spiral, seed, n_random):
    """Random directions, the poles, and spiral points with their antipodes
    (every point up to 4096 of them, evenly strided beyond)."""
    on = spiral[::max(1, len(spiral) // 4096)]
    return {"random": unit_vectors(keyed_rng(seed, "cover-oracle"), n_random),
            "poles": np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]),
            "spiral": on, "antipodes": -on}


@pytest.mark.parametrize("lam", sorted({2.0, *lab.PROBE_LAMS,
                                        *lab.LADDER_LAMS}))
def test_spiral_covering_equals_the_kd_query(lam):
    # lam 2, every probe rung and every cap-lattice rung
    fam = caps.build_lattice(scale.derive(lam))
    assert isinstance(fam, caps.SpiralLattice)
    for name, probes in _probe_sets(fam.centers, int(lam), 20_000).items():
        kd = _kd_covering_chord(fam.centers, probes)
        assert caps.spiral_covering_chord(len(fam), probes) == kd, name
        assert (caps.covering_probe(fam, probes)
                == 2.0 * math.asin(min(1.0, 0.5 * kd))), name


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=16, max_value=30_000))
def test_spiral_covering_equals_the_kd_query_at_any_size(n):
    spiral = caps.fibonacci_sphere(n)
    for name, probes in _probe_sets(spiral, n, 2000).items():
        assert (caps.spiral_covering_chord(n, probes)
                == _kd_covering_chord(spiral, probes)), name


@pytest.mark.parametrize("lam", sorted({2.0, 3.0, *lab.PROBE_LAMS,
                                        *lab.LADDER_LAMS, 8192.0}))
def test_blocked_spiral_scans_equal_the_whole_array_oracles(lam):
    # the index-only scans against the array-taking oracles on the stored
    # spiral: lam 2 and 3, every probe and cap-lattice rung and lam 8192;
    # the probes fill two blocks and one row of a third
    n = caps.spiral_size(scale.derive(lam))
    spiral = caps.fibonacci_sphere(n)
    assert caps.spiral_nearest_chord(n) == spiral_oracle.nearest_chord(spiral)
    probes = unit_vectors(keyed_rng(int(lam), "block-oracle"),
                          2 * BLOCK_ROWS + 1)
    assert (caps.spiral_covering_chord(n, probes)
            == spiral_oracle.covering_chord(spiral, probes))


@pytest.mark.parametrize("n", [1, 2, 16, 35, 4097, 524_288])
@pytest.mark.parametrize("side", ["left", "right"])
def test_the_closed_form_height_search_equals_the_stored_search(n, side):
    # at every stored height and at both its float neighbours, and past
    # both poles
    y = caps.fibonacci_sphere(n)[:, 1]
    v = np.concatenate([y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf),
                        [-2.0, -1.0, 0.0, 1.0, 2.0]])
    assert np.array_equal(caps._spiral_count(v, n, side),
                          np.searchsorted(y, v, side=side))


def test_a_lattice_lays_down_its_coordinates_only_when_read(monkeypatch):
    s = scale.derive(4096.0)
    n = caps.spiral_size(s)
    real = caps.fibonacci_sphere
    monkeypatch.setattr(caps, "fibonacci_sphere", _forbidden)
    fam = caps.build_lattice(s)
    assert len(fam) == n and isinstance(fam, caps.SpiralLattice)
    assert caps.min_separation(fam) >= s.r
    probes = unit_vectors(keyed_rng(7, "lazy-centers"), 100)
    assert caps.covering_probe(fam, probes) <= 2.0 * s.r
    monkeypatch.setattr(caps, "fibonacci_sphere", real)
    assert fam.centers.tobytes() == real(n).tobytes()
    assert fam.centers is fam.centers


@pytest.mark.parametrize("pick", ["spiral-start", "random"])
def test_spiral_covering_is_exact_from_any_candidates(monkeypatch, pick):
    # the candidates only bound; the height windows decide, however loose
    # the bounds and however many windows they take
    spiral = caps.fibonacci_sphere(2048)
    probes = unit_vectors(keyed_rng(6, "cover-loose"), 500)
    gen = keyed_rng(6, "cover-loose-candidates")

    def loose(probes, n):
        if pick == "spiral-start":
            return np.zeros((len(probes), 4), dtype=np.intp)
        return gen.integers(0, n, size=(len(probes), 4))

    monkeypatch.setattr(caps, "_spiral_candidates", loose)
    assert (caps.spiral_covering_chord(len(spiral), probes)
            == _kd_covering_chord(spiral, probes))


@pytest.mark.parametrize("probes", [np.zeros((0, 3)), np.zeros(3),
                                    np.zeros((4, 2)),
                                    np.array([[0.0, math.nan, 1.0]])],
                         ids=["empty", "one-row", "two-columns", "nan"])
def test_covering_probe_rejects_bad_probes(family64, probes):
    with pytest.raises(caps.ConfigError):
        caps.covering_probe(family64, probes)


#: families that are not lattices, made from the lam-64 one
NOT_LATTICES = {
    "cone": lambda fam: fam.restrict_to_cone(fam.centers[5], 0.6),
    "hand-made": lambda fam: caps.CapFamily(scale=fam.scale,
                                            centers=fam.centers.copy()),
    "empty": lambda fam: caps.CapFamily(scale=fam.scale,
                                        centers=np.zeros((0, 3))),
}
QUERIES = {
    "min_separation": caps.min_separation,
    "covering_probe": lambda fam: caps.covering_probe(
        fam, np.array([[0.0, 1.0, 0.0]])),
}


def _denser_spiral(monkeypatch, fam):
    # a spiral three times denser than the real one is not r-separated
    monkeypatch.setattr(caps, "_DENSITY_FACTOR", 24.0)
    caps.build_lattice(scale.derive(16.0))


RAISES = {
    **{f"{kind}-{name}": (caps.ConfigError,
                          lambda mp, fam, make=make, query=query:
                          query(make(fam)))
       for kind, make in NOT_LATTICES.items()
       for name, query in QUERIES.items()},
    "density-24-build_lattice": (caps.DegenerateScaleError, _denser_spiral),
}


@pytest.mark.parametrize("case", sorted(RAISES))
def test_only_a_whole_lattice_has_separation_and_covering(monkeypatch,
                                                          family64, case):
    # each raises before any pair scan or covering search
    error, call = RAISES[case]
    monkeypatch.setattr(caps, "_upper_sq_chords", _forbidden)
    monkeypatch.setattr(caps, "spiral_covering_chord", _forbidden)
    with pytest.raises(error):
        call(monkeypatch, family64)


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_a_replaced_lattice_answers_like_the_lattice(monkeypatch, query):
    # a replaced lattice keeps its size and nearest chord, so it is still a
    # lattice, and lays down no coordinates to answer
    fam = caps.build_lattice(scale.derive(64.0))
    monkeypatch.setattr(caps, "fibonacci_sphere", _forbidden)
    copy = replace(fam)
    assert copy is not fam and isinstance(copy, caps.SpiralLattice)
    assert QUERIES[query](copy).hex() == QUERIES[query](fam).hex()


def _dense_chords(a, b):
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


@pytest.mark.parametrize("lam", [16.0, 64.0], ids=["lam16", "lam64"])
def test_tree_queries_match_dense_oracle(lam):
    fam = caps.build_lattice(scale.derive(lam))
    chords = _dense_chords(fam.centers, fam.centers)
    np.fill_diagonal(chords, np.inf)
    sep = 2.0 * math.asin(min(1.0, 0.5 * float(chords.min())))
    assert caps.min_separation(fam) == pytest.approx(sep, abs=1e-12)

    rng = keyed_rng(3, "caps-oracle-probes")
    probes = rng.normal(size=(3000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    worst = float(_dense_chords(probes, fam.centers).min(axis=1).max())
    cov = 2.0 * math.asin(min(1.0, 0.5 * worst))
    assert caps.covering_probe(fam, probes) == pytest.approx(cov, abs=1e-12)


def test_no_pair_scan_in_a_cap_lattice_run(monkeypatch):
    scanned = []
    real = caps._upper_sq_chords

    def counting(points):
        scanned.append(points.shape)
        return real(points)

    monkeypatch.setattr(caps, "_upper_sq_chords", counting)
    lab.run_experiment("cap-lattice", 64.0, 7, 500)
    assert scanned == []


@pytest.mark.parametrize("lam", [2.0 ** k for k in range(2, 11)])
def test_cap_zero_is_spiral_point_zero(lam):
    s = scale.derive(lam)
    spiral0 = caps.fibonacci_sphere(caps.spiral_size(s))[0]
    assert caps.build_lattice(s).centers[0].tobytes() == spiral0.tobytes()


def test_family_xi_lies_on_the_lam_sphere(family64):
    xi = family64.xi()
    assert np.allclose(np.linalg.norm(xi, axis=1), family64.scale.lam,
                       rtol=1e-12)


def test_restrict_to_cone(family64):
    axis = family64.centers[0]
    sub = family64.restrict_to_cone(axis, 0.5)
    assert 0 < len(sub) < len(family64)
    angles = np.arccos(np.clip(sub.centers @ axis, -1.0, 1.0))
    assert np.all(angles <= 0.5 + 1e-12)


def _ring_count(family, center_index, k):
    """The other caps in ring [k*alpha, (k+1)*alpha), counted directly: the
    oracle for ring_histogram's bincount."""
    alpha = family.scale.alpha
    angles = np.delete(family.angles_from(center_index), center_index)
    return int(np.count_nonzero((angles >= k * alpha)
                                & (angles < (k + 1) * alpha)))


def test_ring_histogram_partitions_everything(family64):
    hist = caps.ring_histogram(family64, 0)
    assert int(hist.sum()) == len(family64) - 1
    # the thin inner rings, and the first rings that hold caps
    for k in (1, 2, 3, *np.flatnonzero(hist)[:3].tolist()):
        assert _ring_count(family64, 0, k) == int(hist[k])


@pytest.mark.parametrize("lam", [64.0, 4096.0])
def test_no_cap_lies_in_a_ring_inside_the_separation(lam):
    # the lattice is separated, so every ring inside the separation is empty
    s = scale.derive(lam)
    fam = caps.build_lattice(s)
    first = math.floor(caps.min_separation(fam) / s.alpha)
    centers = lab.run_experiment("annulus-partition", lam).results[
        "center_indices"]
    for idx in centers:
        assert np.flatnonzero(caps.ring_histogram(fam, idx))[0] >= first


@pytest.mark.parametrize("call", [
    lambda fam: caps.fibonacci_sphere(0),
    lambda fam: caps.select_separated(np.zeros((5, 3)), 1e-3),
], ids=["empty-spiral", "bad-stack"])
def test_bad_input_raises_the_typed_config_error(family64, call):
    with pytest.raises(caps.ConfigError) as err:
        call(family64)
    assert isinstance(err.value, ValueError)


def _clustered_family(lam=256.0, n=40, spread=0.3):
    """Synthetic family whose directions all sit in a small alpha-cone."""
    s = scale.derive(lam)
    dirs = caps.clustered_dirs(keyed_rng(9, "caps-cluster", n),
                               np.array([0.0, 0.0, 1.0]), n, spread * s.alpha)
    return caps.CapFamily(scale=s, centers=dirs)


def test_conflict_graph_on_dense_cluster():
    fam = _clustered_family()
    pairs = caps.conflict_pairs(fam)
    # spread 0.3 alpha around one axis: every pair conflicts
    assert pairs.shape[0] == len(fam) * (len(fam) - 1) // 2
    deg = caps.conflict_degrees(fam)
    assert np.all(deg == len(fam) - 1)


def test_conflict_degrees_count_each_pair_end():
    fam = _clustered_family(n=30, spread=1.5)
    pairs = caps.conflict_pairs(fam)
    assert 0 < pairs.shape[0] < 30 * 29 // 2
    deg = np.zeros(len(fam), dtype=np.int64)
    for i, j in pairs:
        deg[i] += 1
        deg[j] += 1
    assert np.array_equal(caps.conflict_degrees(fam), deg)


def test_greedy_color_proper_and_bounded():
    fam = _clustered_family()
    pairs = caps.conflict_pairs(fam)
    colors = caps.greedy_color(pairs, len(fam))
    assert colors.shape == (len(fam),)
    deg = caps.conflict_degrees(fam)
    assert colors.max() + 1 <= int(deg.max()) + 1
    for i, j in pairs:
        assert colors[i] != colors[j]
    # a complete graph needs exactly n colors
    assert colors.max() + 1 == len(fam)


def test_greedy_color_on_lattice_is_proper(monkeypatch):
    # and the colouring and its checks lay the spiral down once
    fam = caps.build_lattice(scale.derive(64.0))
    real, laid = caps.fibonacci_sphere, []

    def counting(n):
        laid.append(n)
        return real(n)

    monkeypatch.setattr(caps, "fibonacci_sphere", counting)
    pairs = caps.conflict_pairs(fam)
    colors = caps.greedy_color(pairs, len(fam))
    for i, j in pairs:
        assert colors[i] != colors[j]
    deg = caps.conflict_degrees(fam)
    assert colors.max(initial=-1) + 1 <= int(deg.max(initial=0)) + 1
    assert laid == [len(fam)]


def _dirs_from_angles(pairs):
    """A stack of one: six unit vectors at polar angles in the xz-plane."""
    return np.array([[[math.sin(t), 0.0, math.cos(t)] for t in pairs]])


def _selected(res):
    return [None if s[0] < 0 else tuple(s) for s in res.subset.tolist()]


def test_select_separated_finds_spread_subset():
    alpha = 1e-3
    dirs = _dirs_from_angles([0.0, 10 * alpha, 20 * alpha, 30 * alpha,
                              40 * alpha, 50 * alpha])
    res = caps.select_separated(dirs, alpha)
    assert _selected(res) == [(0, 1, 2, 3)]
    assert res.dense_pairs.tolist() == [0]


def test_select_separated_blocked_by_five_cluster():
    alpha = 1e-3
    # five directions within alpha/10 of each other, one far away: any four
    # chosen must include two clustered ones
    dirs = _dirs_from_angles([0.0, 0.01 * alpha, 0.02 * alpha, 0.03 * alpha,
                              0.04 * alpha, 0.5])
    res = caps.select_separated(dirs, alpha)
    assert _selected(res) == [None]
    assert res.found.tolist() == [False]
    assert res.dense_pairs.tolist() == [10]


def test_select_separated_two_tight_triples():
    alpha = 1e-3
    dirs = _dirs_from_angles([0.0, 0.01 * alpha, 0.02 * alpha,
                              0.5, 0.5 + 0.01 * alpha, 0.5 + 0.02 * alpha])
    res = caps.select_separated(dirs, alpha)
    assert _selected(res) == [None]
    assert res.dense_pairs.tolist() == [6]


def test_select_separated_prefers_lexicographic_subset():
    alpha = 1e-3
    # indices 0 and 1 conflict; the first valid subset skips exactly one
    dirs = _dirs_from_angles([0.0, 0.5 * alpha, 10 * alpha, 20 * alpha,
                              30 * alpha, 40 * alpha])
    res = caps.select_separated(dirs, alpha)
    assert _selected(res) == [(0, 2, 3, 4)]
    assert res.dense_pairs.tolist() == [1]


def test_select_separated_stacks_rows_independently():
    alpha = 1e-3
    rows = [[0.0, 10 * alpha, 20 * alpha, 30 * alpha, 40 * alpha, 50 * alpha],
            [0.0, 0.01 * alpha, 0.02 * alpha, 0.03 * alpha, 0.04 * alpha, 0.5],
            [0.0, 0.5 * alpha, 10 * alpha, 20 * alpha, 30 * alpha, 40 * alpha]]
    res = caps.select_separated(
        np.concatenate([_dirs_from_angles(r) for r in rows]), alpha)
    assert _selected(res) == [(0, 1, 2, 3), None, (0, 2, 3, 4)]
    assert res.dense_pairs.tolist() == [0, 10, 1]
    empty = caps.select_separated(np.zeros((0, 6, 3)), alpha)
    assert empty.subset.shape == (0, 4) and empty.dense_pairs.shape == (0,)


def test_select_separated_validates_shape():
    with pytest.raises(ValueError):
        caps.select_separated(np.zeros((5, 3)), 1e-3)
    with pytest.raises(ValueError):
        caps.select_separated(np.ones((2, 5, 3)), 1e-3)
