"""``caps.spiral_pairs_within`` against scipy's KD-tree and the brute
``spiral_oracle.pairs_within``, its test-only oracles.

Both sides keep a pair of ``fibonacci_sphere(n)`` when its squared chord,
summed x, then y, then z, is at most c * c, so the pair sets must be equal,
ties included, and each yielded squared chord must be the stored spiral's.
"""
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

import spiral_oracle
from decolab import caps, scale
from decolab.geometry import BLOCK_ROWS


def _joined(n, c):
    """The pass's blocks joined: (m, 2) pairs, lexicographic, and their sq."""
    blocks = list(caps.spiral_pairs_within(n, c))
    assert all(len(i) for i, _, _ in blocks)    # no empty block is yielded
    empty = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
    i, j, sq = (np.concatenate(a) for a in zip(*blocks, empty))
    order = np.lexsort((j, i))
    return np.stack([i, j], axis=1)[order], sq[order]


def _kd_pairs(spiral, c):
    pairs = cKDTree(spiral, balanced_tree=False).query_pairs(
        c, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].astype(np.intp)


def _check(spiral, c):
    """The pass equals the KD-tree's pairs as a set and on the chords; the
    KD pairs, for picking tie radii."""
    pairs, sq = _joined(len(spiral), c)
    kd = _kd_pairs(spiral, c)
    assert np.array_equal(pairs, kd)
    assert np.array_equal(sq, caps._sq_chords(spiral, kd[:, 0],
                                              spiral, kd[:, 1]))
    return kd


@pytest.mark.parametrize("factor", [1.2, 2.0, 4.0])
@pytest.mark.parametrize("lam", [2.0, 8.0, 64.0, 256.0, 1024.0])
def test_spiral_pairs_equal_the_kd_pairs(lam, factor):
    # c in {1.2, 2, 4} r, then radii equal to a pair's own float chord, the
    # largest and the median within c: a pair is kept only if its sq is at
    # most that chord squared, which can round either way
    s = scale.derive(lam)
    spiral = caps.fibonacci_sphere(caps.spiral_size(s))
    kd = _check(spiral, caps.chord(factor * s.r))
    assert len(kd)
    sq = caps._sq_chords(spiral, kd[:, 0], spiral, kd[:, 1])
    for pick in (int(np.argmax(sq)), int(np.argsort(sq)[len(sq) // 2])):
        _check(spiral, math.sqrt(sq[pick]))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 100])
def test_spiral_pairs_at_small_sizes_and_wide_chords(n):
    # chord 2 holds every pair; chord 0 holds none
    spiral = caps.fibonacci_sphere(n)
    assert len(_check(spiral, 2.0)) == n * (n - 1) // 2
    assert len(_check(spiral, 0.0)) == 0


@pytest.mark.parametrize("c", [-1.0, math.nan])
def test_spiral_pairs_refuse_a_bad_chord(c):
    with pytest.raises(caps.ConfigError):
        next(caps.spiral_pairs_within(100, c))


def test_the_nearest_chord_lays_each_row_down_once(monkeypatch):
    # one pass over the pairs near the nearest chord, plus the 64 rows of
    # its bound: at most n + BLOCK_ROWS rows at lam 4096
    n = caps.spiral_size(scale.derive(4096.0))
    real, laid = caps._spiral_rows, []

    def counting(i, n):
        laid.append(len(i))
        return real(i, n)

    monkeypatch.setattr(caps, "_spiral_rows", counting)
    caps.spiral_nearest_chord(n)
    assert sum(laid) <= n + BLOCK_ROWS


# chords c whose offsets k <= c n / 2 lie on both sides of the radial
# cut's guard k = c^2 n / 4 (past it the cut applies; below it every i
# qualifies), None standing for just past the nearest chord.  The cut
# empties some offset's polar run at all of them but n 16 at None and
# 1.99, n 100 at 1.99 and n 1000 at 0.02
GUARD_CASES = [(16, None), (16, 0.5), (16, 1.99),
               (100, None), (100, 0.2), (100, 1.0), (100, 1.99),
               *((1000, c) for c in (None, 0.02, 0.1, 0.5, 1.0, 1.99)),
               *((4103, c) for c in (None, 0.02, 0.05, 0.2))]


@pytest.mark.parametrize("n,c", GUARD_CASES)
def test_spiral_pairs_equal_the_brute_pairs_across_the_radial_guard(n, c):
    if c is None:
        c = caps.spiral_nearest_chord(n) * (1.0 + 2.0 ** -50)
    pairs, sq = spiral_oracle.pairs_within(caps.fibonacci_sphere(n), c)
    got, got_sq = _joined(n, c)
    assert np.array_equal(got, pairs)
    assert np.array_equal(got_sq, sq)


def test_the_radial_cut_shortens_the_polar_runs(monkeypatch):
    # just past the nearest chord at lam 4096 the polar runs alone measure
    # 546,904 candidates to keep one pair; the radial cut leaves 197,754
    n = caps.spiral_size(scale.derive(4096.0))
    real, measured = caps._sq_chords, []

    def counting(a, i, b, j):
        out = real(a, i, b, j)
        measured.append(out.size)
        return out

    c = caps.spiral_nearest_chord(n) * (1.0 + 2.0 ** -50)
    monkeypatch.setattr(caps, "_sq_chords", counting)
    blocks = list(caps.spiral_pairs_within(n, c))
    assert sum(len(i) for i, _, _ in blocks) == 1
    assert sum(measured) <= 200_000
