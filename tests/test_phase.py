import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sextuple_oracle as oracle
from decolab import caps, phase, scale
from decolab.rng import keyed_rng, keyed_rngs, philox_key


S256 = scale.derive(256.0)


def _generic(replicate=0):
    return phase.sample_sextuple(S256, seed=1, replicates=[replicate])


def test_sextuple_validation():
    with pytest.raises(ValueError):
        phase.check_shell(np.zeros((1, 5, 3)), S256)
    with pytest.raises(ValueError):
        phase.mu6(np.zeros((6, 3)))
    bad = np.full((2, 6, 3), S256.lam / 2.0)   # modulus sqrt(3)/2 lam: on shell
    bad[1, 0] = [S256.lam * 3.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="xi_0.* of sextuple 1"):
        phase.check_shell(bad, S256)
    with pytest.raises(ValueError):
        phase.check_shell(np.full((1, 6, 3), 1e-3), S256)
    assert phase.check_shell(bad[:1], S256).shape == (1, 6, 3)


def test_moduli_and_directions():
    xi = phase.sample_sextuple(S256, seed=1, replicates=4)
    mods = phase.moduli(xi)
    dirs = phase.directions(xi)
    assert mods.shape == (4, 6) and dirs.shape == (4, 6, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=-1), 1.0, rtol=1e-13)
    assert np.allclose(mods, np.linalg.norm(xi, axis=-1), rtol=1e-15)
    assert np.all((0.5 * S256.lam <= mods) & (mods <= 2.0 * S256.lam))


def test_paired_blocks_cancel_exactly():
    xi = phase.sample_sextuple(S256, seed=2, replicates=200, kind="paired")
    assert np.all(phase.mu6(xi) == 0.0)
    assert np.all(phase.grad_xprime(xi) == 0.0)


@given(perm=st.permutations(range(3)))
def test_mu6_invariant_under_within_block_shuffle(perm):
    xi = _generic()
    shuffled = xi[:, list(perm) + [3, 4, 5]]
    assert phase.mu6(shuffled)[0] == phase.mu6(xi)[0]


def test_mu6_invariant_under_block_swap():
    xi = _generic()
    swapped = xi[:, [3, 4, 5, 0, 1, 2]]
    assert phase.mu6(swapped)[0] == phase.mu6(xi)[0]


def test_classify_basket_boundary_and_branches():
    paired = phase.mu6(phase.sample_sextuple(S256, seed=3, replicates=1,
                                             kind="paired"))
    # mu6 = 0 exactly: the boundary mu6 >= c*sqrt(lam) is included at c = 0
    assert phase.classify_basket(paired, S256, c=0.0).tolist() == ["B_ge"]
    assert phase.classify_basket(paired, S256, c=1e-12).tolist() == ["B_lt"]
    # generic moduli spread makes mu6 of order lam^2 >> sqrt(lam)
    generic = phase.mu6(_generic())
    assert phase.classify_basket(generic, S256).tolist() == ["B_ge"]


def test_grad_xprime_handcrafted():
    lam = S256.lam
    xi = np.array([[
        [lam, 1.0, 2.0], [lam, 3.0, -1.0], [lam, -2.0, 0.5],
        [lam, 0.0, 0.0], [lam, 0.0, 0.0], [lam, 0.0, 0.0],
    ]])
    g = phase.grad_xprime(xi)
    assert g.tolist() == [[2.0, 1.5]]


def test_transverse_dirs_units():
    lam = S256.lam
    xi = np.array([[
        [lam, 0.0, 0.0], [0.0, lam, 0.0], [0.0, 0.0, lam],
        [lam, 0.0, 0.0], [lam, 0.0, 0.0], [lam, 0.0, 0.0],
    ]])
    u = phase.transverse_dirs(xi)[0]
    assert np.array_equal(u[0], [0.0, 0.0])
    assert np.allclose(u[1], [1.0, 0.0], atol=0.0)
    assert np.allclose(u[2], [0.0, 1.0], atol=0.0)


def _witnesses(res):
    return [None if w[0] < 0 else tuple(w) for w in res.witness.tolist()]


def test_tp_identity_pairing():
    xi = phase.sample_sextuple(S256, seed=4, replicates=1, kind="paired")
    res = phase.tp_dichotomy(xi, S256)
    assert res.label.tolist() == ["paired"]
    assert _witnesses(res)[0] in phase.PAIRINGS
    one = oracle.Sextuple(scale=S256, xi=xi[0])
    assert oracle.pairing_holds(one, _witnesses(res)[0])


def test_tp_witness_tracks_the_permutation():
    rng = keyed_rng(5, "phase-perm")
    half = phase._shell_points(S256, rng, 3)
    # second block stores half[1], half[2], half[0] at rows 3, 4, 5
    xi = np.vstack([half, half[[1, 2, 0]]])[np.newaxis]
    res = phase.tp_dichotomy(xi, S256)
    assert res.label.tolist() == ["paired"]
    assert _witnesses(res) == [(5, 3, 4)]


def test_tp_generic_is_transversal():
    res = phase.tp_dichotomy(_generic(), S256)
    assert res.label.tolist() == ["transversal"]
    assert _witnesses(res) == [None]
    assert res.grad_norm[0] >= res.grad_threshold


def _balanced_crossed():
    """Blocks with equal moduli and cancelling transverse sums, but the
    transverse directions of one block rotated a quarter turn: no pairing,
    zero gradient."""
    v, h = 0.9 * S256.lam, 0.1 * S256.lam
    return np.array([[
        [v, h, 0.0], [v, -h, 0.0], [v, 0.0, 0.0],
        [-v, 0.0, h], [-v, 0.0, -h], [-v, 0.0, 0.0],
    ]])


def test_tp_neither_branch():
    res = phase.tp_dichotomy(_balanced_crossed(), S256)
    assert res.label.tolist() == ["neither"]
    assert res.grad_norm[0] == 0.0
    assert res.radial_threshold[0] == 0.0


def test_tp_wide_tolerance_flips_neither_to_paired():
    # inflating C until C*alpha exceeds pi/2 admits the crossed pairing
    res = phase.tp_dichotomy(_balanced_crossed(), S256, C=2e5)
    assert res.label.tolist() == ["paired"]


def test_single_linkage_is_transitive():
    a = S256.alpha

    def dir_at(theta):
        return [math.sin(theta), 0.0, math.cos(theta)]

    dirs = np.array([[dir_at(0.0), dir_at(0.9 * a), dir_at(1.8 * a),
                      dir_at(1.0)]])
    # 0-2 are 1.8 alpha apart, linked only through 1
    assert phase.single_linkage_sizes(dirs, a).tolist() == [[3, 1, 0, 0]]
    assert phase.single_linkage_sizes(dirs, 0.5 * a).tolist() == [[1, 1, 1, 1]]


def test_single_linkage_chain_needs_every_squaring():
    # a path 0-1-...-5 of links just under alpha: one cluster of six
    a = S256.alpha
    dirs = np.array([[[math.sin(k * 0.9 * a), 0.0, math.cos(k * 0.9 * a)]
                      for k in (0, 5, 1, 4, 2, 3)]])
    assert phase.single_linkage_sizes(dirs, a).tolist() == [[6, 0, 0, 0, 0, 0]]


def test_rn_narrow_on_five_cluster():
    xi = phase.sample_sextuple(S256, seed=6, replicates=1, kind="clustered5")
    res = phase.rn_classify(xi, S256, None)
    assert res.label.tolist() == ["narrow"]
    assert res.cluster_sizes[0, 0] >= 5
    assert res.max_alpha_count == 0


def test_rn_neither_on_generic():
    res = phase.rn_classify(_generic(), S256, None)
    assert res.label.tolist() == ["neither"]
    assert res.cluster_sizes.tolist() == [[1, 1, 1, 1, 1, 1]]


def _dense_family():
    rng = keyed_rng(7, "phase-family")
    axis = np.array([0.0, 0.0, 1.0])
    out = [axis]
    for _ in range(23):
        t = rng.normal(size=3)
        t -= t @ axis * axis
        t /= np.linalg.norm(t)
        theta = 0.5 * S256.alpha * rng.random()
        out.append(math.cos(theta) * axis + math.sin(theta) * t)
    return caps.CapFamily(scale=S256, centers=np.array(out))


def test_rn_robust_beats_narrow():
    fam = _dense_family()
    res = phase.rn_classify(_generic(), S256, fam)
    assert res.label.tolist() == ["robust"]
    assert res.max_alpha_count == 23
    assert res.max_alpha_count > res.density_threshold


def test_sample_sextuple_determinism_and_kinds():
    a = phase.sample_sextuple(S256, seed=8, replicates=[3])
    b = phase.sample_sextuple(S256, seed=8, replicates=[3])
    assert np.array_equal(a, b)
    c = phase.sample_sextuple(S256, seed=8, replicates=[4])
    assert not np.array_equal(a, c)
    both = phase.sample_sextuple(S256, seed=8, replicates=5)
    assert np.array_equal(both[3:5], np.concatenate([a, c]))
    with pytest.raises(ValueError):
        phase.sample_sextuple(S256, seed=8, replicates=1, kind="exotic")


def test_perturbed_sampler_stays_on_shell():
    # the sampler checks every modulus of the stack against the shell
    xi = phase.sample_sextuple(S256, seed=9, replicates=100, kind="perturbed")
    phase.check_shell(xi, S256)


# ---------------------------------------------------------------------------
# batch kernels against the scalar oracles in sextuple_oracle.py
# ---------------------------------------------------------------------------

def test_keyed_rngs_reproduce_keyed_rng():
    items = [5, 0, 17, 5, 2**40, "x"]
    parts = ("sextuple", "paired", repr(256.0))
    for item, gen in zip(items, keyed_rngs(3, parts, items)):
        ref = keyed_rng(3, *parts, item)
        key = gen.bit_generator.state["state"]["key"].tolist()
        assert key == ref.bit_generator.state["state"]["key"].tolist()
        assert key[0] + (key[1] << 64) == philox_key(3, *parts, item)
        assert np.array_equal(gen.normal(size=5), ref.normal(size=5))
        assert gen.permutation(3).tolist() == ref.permutation(3).tolist()


@pytest.mark.parametrize("kind", phase.SAMPLER_KINDS)
def test_batch_sampler_matches_per_replicate_streams(kind):
    reps = list(range(1000))
    random.Random(kind).shuffle(reps)
    xi = phase.sample_sextuple(S256, 7, reps, kind)
    for row, rep in zip(xi, reps):
        assert np.array_equal(row, oracle.sample_sextuple(S256, 7, rep, kind).xi)


def _assert_kernels_match(xi, scale_params, C=4.0):
    """Every batch kernel on ``xi`` equals its scalar oracle, row by row."""
    ones = [oracle.Sextuple(scale=scale_params, xi=row) for row in xi]
    mu = phase.mu6(xi)
    assert mu.tolist() == [oracle.mu6(s) for s in ones]
    assert phase.classify_basket(mu, scale_params).tolist() == \
        [oracle.classify_basket(s) for s in ones]
    assert phase.grad_xprime(xi).tolist() == \
        [oracle.grad_xprime(s).tolist() for s in ones]
    tp = phase.tp_dichotomy(xi, scale_params, C=C)
    ref = [oracle.tp_dichotomy(s, C=C) for s in ones]
    assert tp.label.tolist() == [r.label for r in ref]
    assert _witnesses(tp) == [r.witness for r in ref]
    assert tp.grad_norm.tolist() == [r.grad_norm for r in ref]
    assert tp.radial_threshold.tolist() == [r.radial_threshold for r in ref]
    assert tp.angular_threshold == ref[0].angular_threshold
    assert tp.grad_threshold == ref[0].grad_threshold
    rn = phase.rn_classify(xi, scale_params, None)
    ref = [oracle.rn_classify(s, None) for s in ones]
    assert rn.label.tolist() == [r.label for r in ref]
    assert [tuple(v for v in row if v) for row in rn.cluster_sizes.tolist()] \
        == [r.cluster_sizes for r in ref]
    sel = caps.select_separated(phase.directions(xi), scale_params.alpha)
    ref = [oracle.select_separated(s.directions(), scale_params.alpha)
           for s in ones]
    assert [None if s[0] < 0 else tuple(s) for s in sel.subset.tolist()] == \
        [r.subset for r in ref]
    assert sel.dense_pairs.tolist() == [r.dense_pairs for r in ref]


@pytest.mark.parametrize("lam", [64.0, 256.0, 4096.0])
@pytest.mark.parametrize("kind", phase.SAMPLER_KINDS)
def test_kernels_match_oracles_on_sampled_stacks(kind, lam):
    s = scale.derive(lam)
    _assert_kernels_match(phase.sample_sextuple(s, 11, 60, kind), s)


_coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(dirs=st.lists(st.tuples(_coord, _coord, _coord), min_size=12,
                     max_size=12),
       radii=st.lists(st.floats(0.51, 1.99), min_size=12, max_size=12),
       flat=st.lists(st.booleans(), min_size=12, max_size=12))
def test_kernels_match_oracles_on_random_stacks(dirs, radii, flat):
    v = np.asarray(dirs).reshape(2, 6, 3)
    # some centers on the first axis: zero transverse vectors
    v[np.asarray(flat).reshape(2, 6), 1:] = 0.0
    v[..., 0] += np.where(np.linalg.norm(v, axis=-1) < 1e-3, 1.0, 0.0)
    xi = S256.lam * np.asarray(radii).reshape(2, 6, 1) * \
        v / np.linalg.norm(v, axis=-1, keepdims=True)
    _assert_kernels_match(phase.check_shell(xi, S256), S256)


@settings(max_examples=40, deadline=None)
@given(rep=st.integers(0, 10**6), perm=st.permutations(range(3)),
       perm2=st.permutations(range(3)))
def test_mu6_and_grad_bitwise_under_block_permutations(rep, perm, perm2):
    xi = phase.sample_sextuple(S256, 13, [rep])
    shuffled = xi[:, list(perm) + [3 + p for p in perm2]]
    swapped = xi[:, [3, 4, 5, 0, 1, 2]]
    for other in (shuffled, swapped):
        assert phase.mu6(other).tolist() == [oracle.mu6(
            oracle.Sextuple(scale=S256, xi=other[0]))]
        assert phase.mu6(other)[0] == phase.mu6(xi)[0]
    assert phase.grad_xprime(shuffled).tolist() == phase.grad_xprime(xi).tolist()
    assert phase.grad_xprime(swapped).tolist() == \
        (-phase.grad_xprime(xi)).tolist()


def _on_axes(lam, rows):
    return lam * np.asarray(rows, dtype=float)[np.newaxis]


def test_tp_angles_exactly_at_the_threshold():
    # transverse parts at right angles meet at exactly pi/2; with alpha =
    # pi/8 and C = 4 the angular threshold is pi/2 to the bit
    lam = S256.lam
    at = dataclasses.replace(S256, alpha=math.pi / 8)
    below = dataclasses.replace(S256, alpha=math.nextafter(math.pi / 8, 0.0))
    c = math.sqrt(0.5)
    xi = _on_axes(lam, [[c, c, 0.0], [c, c, 0.0], [c, c, 0.0],
                        [c, 0.0, c], [c, 0.0, c], [c, 0.0, c]])
    assert phase.tp_dichotomy(xi, at).label.tolist() == ["paired"]
    assert phase.tp_dichotomy(xi, below).label.tolist() != ["paired"]
    for s in (at, below):
        _assert_kernels_match(xi, s)


def test_tp_zero_transverse_vectors():
    # zero pairs with zero at angle 0 and with anything else at pi, so a
    # zero-to-nonzero partner passes only once C * alpha reaches pi
    lam = S256.lam
    both_zero = _on_axes(lam, [[1, 0, 0], [1, 0, 0], [-1, 0, 0],
                               [1, 0, 0], [-1, 0, 0], [1, 0, 0]])
    one_zero = _on_axes(lam, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                              [0, 1, 0], [1, 0, 0], [0, 0, 1]])
    at_pi = dataclasses.replace(S256, alpha=math.pi / 4)
    below = dataclasses.replace(S256, alpha=math.nextafter(math.pi / 4, 0.0))
    assert _witnesses(phase.tp_dichotomy(both_zero, S256)) == [(3, 4, 5)]
    assert _witnesses(phase.tp_dichotomy(one_zero, at_pi)) == [(3, 4, 5)]
    assert _witnesses(phase.tp_dichotomy(one_zero, below)) == [(4, 3, 5)]
    for xi in (both_zero, one_zero):
        for s in (S256, at_pi, below):
            _assert_kernels_match(xi, s)


def test_linkage_and_selection_exactly_at_alpha():
    # the axes are pi/2 apart to the bit in both the batch and the oracle
    lam = S256.lam
    xi = _on_axes(lam, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                        [-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    at = dataclasses.replace(S256, alpha=math.pi / 2)
    below = dataclasses.replace(S256, alpha=math.nextafter(math.pi / 2, 0.0))
    d = phase.directions(xi)
    assert phase.single_linkage_sizes(d, at.alpha).tolist() == [[6] + [0] * 5]
    assert phase.single_linkage_sizes(d, below.alpha).tolist() == [[1] * 6]
    assert caps.select_separated(d, at.alpha).subset.tolist() == [[0, 1, 2, 3]]
    for s in (at, below):
        _assert_kernels_match(xi, s)
