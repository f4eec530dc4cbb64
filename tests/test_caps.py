import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

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
    monkeypatch.setattr(caps, "kd_tree", _forbidden)
    for build in (caps.build_lattice, caps.first_cap):
        with pytest.raises(caps.ConfigError, match="134217728 points"):
            build(scale.derive(2.0 ** 18))


def _greedy_oracle(pts, r):
    """Greedy r-separation in spiral order, by dense pairwise angles."""
    kept = []
    for j in range(pts.shape[0]):
        if all(np.arccos(np.clip(pts[i] @ pts[j], -1.0, 1.0)) >= r
               for i in kept):
            kept.append(j)
    return pts[kept]


def test_pruning_matches_dense_greedy_oracle(monkeypatch):
    # at the real density the pruning keeps everything; a denser spiral
    # makes it drop most points
    monkeypatch.setattr(caps, "_DENSITY_FACTOR", 24.0)
    s = scale.derive(16.0)
    fam = caps.build_lattice(s)
    assert len(fam) < caps.spiral_size(s)
    oracle = _greedy_oracle(caps.fibonacci_sphere(caps.spiral_size(s)), s.r)
    assert np.array_equal(fam.centers, oracle)
    assert caps.min_separation(fam) >= s.r


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
    assert caps.spiral_nearest_chord(spiral) == _kd_nearest_chord(spiral)


def test_whole_lattices_build_no_kdtree(monkeypatch):
    monkeypatch.setattr(caps, "kd_tree", _forbidden)
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
    assert fam.is_spiral
    for name, probes in _probe_sets(fam.centers, int(lam), 20_000).items():
        kd = _kd_covering_chord(fam.centers, probes)
        assert caps.spiral_covering_chord(fam.centers, probes) == kd, name
        assert (caps.covering_probe(fam, probes)
                == 2.0 * math.asin(min(1.0, 0.5 * kd))), name


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=16, max_value=30_000))
def test_spiral_covering_equals_the_kd_query_at_any_size(n):
    spiral = caps.fibonacci_sphere(n)
    for name, probes in _probe_sets(spiral, n, 2000).items():
        assert (caps.spiral_covering_chord(spiral, probes)
                == _kd_covering_chord(spiral, probes)), name


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
    assert (caps.spiral_covering_chord(spiral, probes)
            == _kd_covering_chord(spiral, probes))


def test_derived_families_probe_their_covering_on_a_tree(monkeypatch):
    fam = caps.build_lattice(scale.derive(64.0))
    probes = unit_vectors(keyed_rng(5, "cover-derived"), 3000)
    built = []
    real = caps.kd_tree

    def counting(*args, **kwargs):
        built.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(caps, "kd_tree", counting)
    for sub in (replace(fam, centers=fam.centers[::2]),
                fam.restrict_to_cone(fam.centers[len(fam) // 2], 0.5)):
        assert not sub.is_spiral
        kd = _kd_covering_chord(sub.centers, probes)
        before = len(built)
        assert (caps.covering_probe(sub, probes)
                == 2.0 * math.asin(min(1.0, 0.5 * kd)))
        assert built[before:] == [sub.centers.shape]


@pytest.mark.parametrize("probes", [np.zeros((0, 3)), np.zeros(3),
                                    np.zeros((4, 2)),
                                    np.array([[0.0, math.nan, 1.0]])],
                         ids=["empty", "one-row", "two-columns", "nan"])
def test_covering_probe_rejects_bad_probes(family64, probes):
    with pytest.raises(caps.ConfigError):
        caps.covering_probe(family64, probes)


def test_derived_families_query_their_own_nearest_chord():
    # the spiral's closest pair is polar, (0, 3) at lam 64: neither the
    # even-indexed caps nor an equatorial cone keeps it
    fam = caps.build_lattice(scale.derive(64.0))
    for sub in (replace(fam, centers=fam.centers[::2]),
                fam.restrict_to_cone(fam.centers[len(fam) // 2], 0.5)):
        assert sub.nearest_chord == _kd_nearest_chord(sub.centers)
        assert sub.nearest_chord > fam.nearest_chord


def test_min_separation_of_fewer_than_two_caps_is_pi():
    s = scale.derive(64.0)
    for k in (0, 1):
        fam = caps.CapFamily(scale=s, centers=caps.fibonacci_sphere(2)[:k])
        assert fam.nearest_chord == math.inf
        assert caps.min_separation(fam) == math.pi


def _dense_chords(a, b):
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


def _oracle_families():
    for lam in (16.0, 64.0):
        yield caps.build_lattice(scale.derive(lam))
    fam = caps.build_lattice(scale.derive(64.0))
    fam.tree                          # the parent's tree exists first
    yield fam.restrict_to_cone(fam.centers[5], 0.6)


@pytest.mark.parametrize("fam", list(_oracle_families()),
                         ids=["lam16", "lam64", "lam64-cone"])
def test_tree_queries_match_dense_oracle(fam):
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


def test_no_kdtree_in_a_cap_lattice_run(monkeypatch):
    built = []
    real = caps.kd_tree

    def counting(*args, **kwargs):
        built.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(caps, "kd_tree", counting)
    lab.run_experiment("cap-lattice", 64.0, 7, 500)
    assert built == []


@pytest.mark.parametrize("lam", [2.0 ** k for k in range(2, 11)])
def test_cap_zero_is_spiral_point_zero(lam):
    s = scale.derive(lam)
    spiral0 = caps.fibonacci_sphere(caps.spiral_size(s))[0]
    assert caps.build_lattice(s).centers[0].tobytes() == spiral0.tobytes()
    assert caps.first_cap(s).tobytes() == spiral0.tobytes()


def test_first_cap_lays_down_no_spiral(monkeypatch):
    s = scale.derive(4096.0)
    spiral0 = caps.fibonacci_sphere(caps.spiral_size(s))[0]
    monkeypatch.setattr(caps, "fibonacci_sphere", _forbidden)
    assert caps.first_cap(s).tobytes() == spiral0.tobytes()


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


def test_ring_histogram_partitions_everything(family64):
    hist = caps.ring_histogram(family64, 0)
    assert int(hist.sum()) == len(family64) - 1
    for k in (1, 2, 3):
        assert caps.annulus_count(family64, 0, k) == int(hist[k])


def test_annulus_count_rejects_inner_ring(family64):
    with pytest.raises(ValueError):
        caps.annulus_count(family64, 0, 0)


@pytest.mark.parametrize("call", [
    lambda fam: caps.fibonacci_sphere(0),
    lambda fam: caps.annulus_count(fam, 0, 0),
    lambda fam: caps.annulus_count(fam, 0, -1),
    lambda fam: fam.n_colors,
    lambda fam: caps.select_separated(np.zeros((5, 3)), 1e-3),
], ids=["empty-spiral", "ring-0", "ring-negative", "uncoloured",
        "bad-stack"])
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
    fam = caps.greedy_color(_clustered_family())
    deg = caps.conflict_degrees(fam)
    assert fam.n_colors <= int(deg.max()) + 1
    for i, j in caps.conflict_pairs(fam):
        assert fam.colors[i] != fam.colors[j]
    # a complete graph needs exactly n colors
    assert fam.n_colors == len(fam)


def test_n_colors_requires_coloring(family64):
    with pytest.raises(ValueError):
        family64.n_colors


def test_greedy_color_on_lattice_is_proper(family64):
    colored = caps.greedy_color(family64)
    pairs = caps.conflict_pairs(colored)
    for i, j in pairs:
        assert colored.colors[i] != colored.colors[j]
    deg = caps.conflict_degrees(colored)
    assert colored.n_colors <= int(deg.max(initial=0)) + 1


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
