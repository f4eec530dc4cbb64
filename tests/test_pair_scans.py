"""The exact pair scans against scipy's KD-tree, their test-only oracle.

``caps.pairs_within`` and ``caps.pair_counts_within`` replace KD-tree
``query_pairs`` and ``count_neighbors`` calls in ``conflict_pairs`` and
``tubes.band_cells``; both sides count a pair when its squared
chord is at most r * r, so the results must be equal, ties included.
The nearest chord and the covering are known only for a SpiralLattice,
and ``test_caps`` checks them against k=2 and k=1 queries.
"""
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from decolab import caps, scale, tubes
from decolab.rng import keyed_rng, unit_vectors
from test_tubes import _lab_family


def _clusters(lam, n_axes, per_axis, spread, key):
    """n_axes clusters of per_axis directions within spread * alpha."""
    s = scale.derive(lam)
    rng = keyed_rng(17, key, n_axes, per_axis)
    dirs = [caps.clustered_dirs(rng, axis, per_axis, spread * s.alpha)
            for axis in unit_vectors(rng, n_axes)]
    return caps.CapFamily(scale=s, centers=np.concatenate(dirs))


FAMILIES = {
    **{f"lab-{2 ** k}": (lambda k=k: _lab_family(float(2 ** k)))
       for k in range(3, 13)},
    "cluster-40": lambda: _clusters(256.0, 1, 40, 0.3, "scan-cluster"),
    "clusters-3x30": lambda: _clusters(64.0, 3, 30, 1.5, "scan-clusters"),
    "clusters-10000": lambda: _clusters(256.0, 100, 100, 3.0,
                                        "scan-clusters-10000"),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]()


def _kd_pairs(points, r):
    pairs = cKDTree(points, balanced_tree=False).query_pairs(r)
    return sorted(pairs)


def _kd_counts(points, radii):
    tree = cKDTree(points, balanced_tree=False)
    return (tree.count_neighbors(tree, np.asarray(radii)) - len(points)) // 2


def _kd_band_counts(family):
    """The KD-tree band counts the scan replaced."""
    n, alpha = len(family), family.scale.alpha
    jmax = max(1, int(math.ceil(math.log(math.pi / alpha, 2.0))) + 1)
    edges = alpha * 2.0 ** np.arange(1, jmax + 1)
    chords = np.where(edges < math.pi, 2.0 * np.sin(0.5 * edges), np.inf)
    tree = cKDTree(family.centers, balanced_tree=False)
    within = tree.count_neighbors(tree, np.nextafter(chords, 0.0))
    return np.diff(np.append((within - n) // 2, n * (n - 1) // 2), prepend=0)


def test_conflict_pairs_equal_the_kd_pairs(family):
    pairs = caps.conflict_pairs(family)
    kd = _kd_pairs(family.centers, caps.chord(family.scale.alpha))
    assert [tuple(p) for p in pairs.tolist()] == kd
    assert np.array_equal(
        caps.conflict_degrees(family),
        np.bincount(np.asarray(kd, dtype=np.intp).ravel(),
                    minlength=len(family)))


def test_band_pair_counts_equal_the_kd_counts(family):
    edges, counts = tubes.band_cells(family)
    assert counts.sum(axis=1).tolist() == _kd_band_counts(family).tolist()
    if len(family) <= 2500:     # the tree's hundreds of radii take seconds
        # every cell's pairs: the tree's pairs strictly within its upper
        # edge, less those within the one before; an edge at pi takes all
        top = edges[:, 1:].ravel()
        within = _kd_counts(family.centers, np.where(
            top < math.pi, np.nextafter(2.0 * np.sin(0.5 * top), 0.0),
            np.inf))
        assert counts.ravel().tolist() == np.diff(within, prepend=0).tolist()
    assert counts.sum() == len(family) * (len(family) - 1) // 2


def _tie_radii(points, rows):
    """Each row's nearest chord, and the floats on either side of it."""
    radii = []
    for i in rows:
        sq = caps._sq_chords(points, i, points, slice(None))
        sq[i] = np.inf
        r = math.sqrt(float(sq.min()))
        radii += [math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)]
    return radii


def test_scans_equal_the_kd_tree_on_tie_radii(family):
    points = family.centers
    n_rows = 6 if len(points) <= 2500 else 2 if len(points) <= 8000 else 1
    rows = keyed_rng(5, "scan-ties", len(points)).choice(
        len(points), size=n_rows, replace=False)
    ties = _tie_radii(points, rows.tolist())
    # ascending, each exact tie twice, and two infinite radii
    radii = sorted(ties + ties[1::3]) + [math.inf, math.inf]
    assert (caps.pair_counts_within(points, radii).tolist()
            == _kd_counts(points, radii).tolist())
    for r in ties:
        found = caps.pairs_within(points, r)
        assert [tuple(p) for p in found.tolist()] == _kd_pairs(points, r), r


def test_scans_of_fewer_than_two_rows_find_nothing():
    for k in (0, 1):
        points = caps.fibonacci_sphere(2)[:k]
        assert caps.pairs_within(points, 2.0).shape == (0, 2)
        assert caps.pair_counts_within(points, [1.0, math.inf]).tolist() \
            == [0, 0]
