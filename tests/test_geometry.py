import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from decolab import geometry, lab, scale
from decolab.errors import DegenerateGeometryError
from decolab.rng import jittered_stack, keyed_rng, unit_vectors

import geometry_oracle as oracle


def _shell(rng, n, lam=256.0):
    radii = lam * rng.uniform(0.5, 2.0, size=n)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return radii[:, None] * v


def test_triples_are_the_twenty_lexicographic_ones():
    assert len(geometry.TRIPLES) == 20
    assert geometry.TRIPLES[0] == (0, 1, 2)
    assert geometry.TRIPLES[-1] == (3, 4, 5)
    assert list(geometry.TRIPLES) == sorted(geometry.TRIPLES)


def test_normal_is_unit_and_points_up():
    rng = keyed_rng(0, "geom-unit")
    xi = _shell(rng, 5000)
    n = geometry.normal(xi)
    assert n.shape == (5000, 4)
    assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) < 1e-12
    assert np.all(n[:, 3] > 0.0)
    # spatial part is antiparallel to xi
    dots = np.sum(n[:, :3] * xi, axis=1)
    assert np.all(dots < 0.0)


def test_normal_at_origin_is_time_axis():
    n = geometry.normal(np.zeros(3))
    assert np.allclose(n, [0.0, 0.0, 0.0, 1.0], atol=0.0)


def test_asymptotic_normal_norm_and_domain():
    xi = np.array([3.0, 0.0, 4.0])
    a = geometry.asymptotic_normal(xi)
    # norm is sqrt(1 + 1/(4 s^2)) with s = 5
    assert np.linalg.norm(a) == pytest.approx(math.sqrt(1.0 + 1.0 / 100.0),
                                              rel=1e-15)
    assert a[3] == pytest.approx(0.1)
    with pytest.raises(DegenerateGeometryError):
        geometry.asymptotic_normal(np.zeros(3))
    with pytest.raises(DegenerateGeometryError):
        geometry.asymptotic_normal(np.array([[1.0, 0.0, 0.0], [0.0] * 3]))


def test_defect_is_antiparallel_to_asymptote():
    # both normal and its asymptote are multiples of (-2 xi, 1), so the
    # defect stays on that line, pointing backwards
    rng = keyed_rng(0, "geom-defect")
    xi = _shell(rng, 2000)
    d = geometry.normal_defect(xi)
    a = geometry.asymptotic_normal(xi)
    cos = np.sum(d * a, axis=1) / (
        np.linalg.norm(d, axis=1) * np.linalg.norm(a, axis=1))
    assert np.max(np.abs(cos + 1.0)) < 1e-6


def test_residual_matches_closed_form():
    for s in (10.0, 256.0, 4096.0):
        xi = np.array([s, 0.0, 0.0])
        u = 1.0 / (4.0 * s * s)
        closed = u / (math.sqrt(1.0 + u) + 1.0)
        assert geometry.normal_residual(xi) == pytest.approx(closed, rel=1e-9)


def test_residual_is_direction_independent():
    rng = keyed_rng(0, "geom-iso")
    v = rng.normal(size=(500, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    res = geometry.normal_residual(128.0 * v)
    # the defect is a difference of near-equal vectors, so the spread floor
    # is absolute rounding noise, not relative
    assert np.ptp(res) < 1e-15 + 1e-10 * np.max(res)


def test_angle_between_exact_endpoints():
    e1 = np.array([1.0, 0.0, 0.0])
    assert geometry.angle_between(e1, e1) == 0.0
    assert geometry.angle_between(e1, -e1) == pytest.approx(math.pi, abs=0.0)
    assert geometry.angle_between(e1, [0.0, 2.0, 0.0]) == pytest.approx(
        math.pi / 2.0, rel=1e-15)


def test_angle_between_tiny_angles_stay_accurate():
    # rotate e1 by known tiny angles in the (e1, e2) plane; the half-angle
    # formula should recover them to near machine precision, where the
    # naive arccos form would lose half the digits
    thetas = np.array([1e-9, 1e-7, 1e-5, 1e-3])
    u = np.array([1.0, 0.0, 0.0])
    vs = np.stack([np.cos(thetas), np.sin(thetas), np.zeros(4)], axis=1)
    got = geometry.angle_between(np.broadcast_to(u, (4, 3)), vs)
    assert np.max(np.abs(got / thetas - 1.0)) < 1e-12


def test_angle_between_rejects_zero_vectors():
    for u, v in ((np.zeros(3), np.ones(3)), (np.ones((2, 4)), np.zeros(4))):
        with pytest.raises(DegenerateGeometryError):
            geometry.angle_between(u, v)
    # the typed error keeps its builtin base
    assert issubclass(DegenerateGeometryError, ValueError)


def test_bilipschitz_coincident_conventions():
    xi = np.array([5.0, 1.0, 0.0])
    assert geometry.bilipschitz_ratio(xi, xi) == 1.0
    # same direction, different radius: directions coincide, normals do not
    assert geometry.bilipschitz_ratio(xi, 2.0 * xi) == math.inf


def _bilipschitz_unblocked(xi, eta):
    """The ratio over all rows at once: the twin of the blocked kernel."""
    theta_dir = geometry.angle_between(xi, eta)
    theta_nor = geometry.angle_between(geometry.normal(xi),
                                       geometry.normal(eta))
    zero = theta_dir == 0.0
    return np.where(zero, np.where(theta_nor == 0.0, 1.0, np.inf),
                    theta_nor / np.where(zero, 1.0, theta_dir))


@pytest.mark.parametrize("n", [1, geometry.BLOCK_ROWS - 1, geometry.BLOCK_ROWS,
                               geometry.BLOCK_ROWS + 1,
                               3 * geometry.BLOCK_ROWS + 7])
def test_bilipschitz_blocks_equal_the_unblocked_ratio(n):
    rng = keyed_rng(n, "geom-bil-blocks")
    xi = _shell(rng, n)
    eta = _shell(rng, n)
    # coincident rows (ratio 1) and parallel rows at another radius (inf)
    eta[::5] = xi[::5]
    eta[1::7] = 2.0 * xi[1::7]
    got = geometry.bilipschitz_ratio(xi, eta)
    assert got.shape == (n,)
    assert got.tobytes() == _bilipschitz_unblocked(xi, eta).tobytes()
    # one xi against the stack broadcasts like the unblocked ratio
    got = geometry.bilipschitz_ratio(xi[0], eta)
    assert got.tobytes() == _bilipschitz_unblocked(xi[0], eta).tobytes()


def test_bilipschitz_of_one_pair_is_a_float():
    xi = np.array([5.0, 1.0, 0.0])
    eta = np.array([1.0, 4.0, 2.0])
    got = geometry.bilipschitz_ratio(xi, eta)
    assert type(got) is float
    assert got == float(_bilipschitz_unblocked(xi, eta))


def test_bilipschitz_near_one_on_a_thin_shell():
    rng = keyed_rng(1, "geom-bil")
    lam = 1024.0
    xi = _shell(rng, 4000, lam)
    eta = _shell(rng, 4000, lam)
    ratio = geometry.bilipschitz_ratio(xi, eta)
    finite = ratio[np.isfinite(ratio)]
    assert finite.size == 4000
    assert np.max(np.abs(finite - 1.0)) < 0.02


def test_gram_det3_matches_brute_determinant_for_unit_vectors():
    rng = keyed_rng(2, "geom-gram")
    v = rng.normal(size=(3000, 3, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    closed = geometry.gram_det3(v[:, 0], v[:, 1], v[:, 2])
    gram = v @ np.transpose(v, (0, 2, 1))
    brute = np.linalg.det(gram)
    assert np.max(np.abs(closed - brute)) < 1e-12


def test_wedge3_norm_zero_on_coplanar_triple():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    c = (a + b) / math.sqrt(2.0)
    assert geometry.wedge3_norm(a, b, c) == pytest.approx(0.0, abs=1e-7)
    # orthonormal triple has wedge exactly one
    assert geometry.wedge3_norm(a, b, [0.0, 0.0, 1.0]) == 1.0


def test_mixed_minor4_known_value_and_shape_check():
    eye = np.eye(4)
    assert geometry.mixed_minor4(*eye) == 1.0
    assert geometry.mixed_minor4(eye[0], eye[0], eye[1], eye[2]) == 0.0
    with pytest.raises(ValueError):
        geometry.mixed_minor4(np.ones(3), np.ones(3), np.ones(3), np.ones(3))


def _exact_det(rows):
    """Determinant of a square matrix of floats or Fractions, exact."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def _clustered_minor_columns(lam, seed, rows):
    """mixed-minor's columns a1, a2, a3, rho4 at the given rows of its
    default draw."""
    s = scale.derive(lam)
    d = jittered_stack(keyed_rng(seed, "mixed-minor", repr(lam)),
                       lab.REGISTRY["mixed-minor"].default_samples, 4, s.r)
    dirs = d[rows] / geometry.norm(d[rows])[..., np.newaxis]
    cols = [geometry.asymptotic_normal(lam * dirs[:, m]) for m in range(3)]
    return cols + [geometry.normal_defect(lam * dirs[:, 3])]


# generic Gaussian rows, and clustered rows of mixed-minor at lam 512,
# seed 2, where a Gram matrix of dot products rounds row 2407's wedge
# (1.1217e-8) to zero
_GENERIC = list(np.swapaxes(
    keyed_rng(0, "geom-exact").normal(size=(40, 4, 4)), 0, 1))
_CLUSTERED = _clustered_minor_columns(512.0, 2, [*range(2400, 2416)])


@pytest.mark.parametrize("cols", [_GENERIC, _CLUSTERED],
                         ids=["generic", "clustered-512-seed-2"])
def test_kernels_match_exact_determinants_of_the_same_floats(cols):
    eps = np.finfo(float).eps
    det = geometry.mixed_minor4(*cols)
    gram = geometry.gram_det(*cols[:3])
    for r in range(len(det)):
        c = [v[r] for v in cols]
        size = [float(geometry.norm(v)) for v in c]
        # Laplace: each 2x2 minor is off by 2u times its two products, a
        # term by 5u and the sum by 5u of |terms|; the six terms together
        # are at most 6 prod|c| (Cauchy-Schwarz per minor), so 30 eps
        assert abs(Fraction(float(det[r])) - abs(_exact_det(c))) <= (
            30 * eps * math.prod(size))
        # Cauchy-Binet: the four 3x3 minors are off by at most 20 eps P in
        # all (P = |a||b||c|, l1 <= 2 l2 in R^4), the sum of their squares
        # adds 2 eps of itself, and sqrt(G) <= P: the wedge sqrt(gram) is
        # within about 42 eps P of the exact one
        p = math.prod(size[:3])
        exact = _exact_det([[sum(Fraction(x) * Fraction(y)
                                 for x, y in zip(u, v)) for v in c[:3]]
                            for u in c[:3]])
        assert abs(Fraction(float(gram[r])) - exact) <= (
            42 * eps * p * (math.sqrt(exact) + 42 * eps * p))


def test_the_mixed_minor_wedge_needs_the_minors_not_a_gram_matrix(
        monkeypatch):
    # the mutant: the wedge from a cofactor expansion of the Gram matrix
    # of dot products, which loses row 2407's wedge at lam 512, seed 2
    def cofactor_gram(a, b, c):
        g = [[geometry.dot(x, y) for y in (a, b, c)] for x in (a, b, c)]
        return np.clip(g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
                       - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
                       + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]),
                       0.0, None)

    def hadamard(seed):
        rep = lab.run_experiment("mixed-minor", 512.0, seed)
        (v,) = [v for v in rep.verdicts if v.name == "hadamard_inequality"]
        return v.status

    assert hadamard(2) == lab.PASS
    monkeypatch.setattr(geometry, "gram_det", cofactor_gram)
    assert hadamard(2) == lab.FAIL


@pytest.mark.parametrize("lam", [64.0, 1024.0, 16384.0, 65536.0])
def test_orient3d_matches_an_exact_determinant_of_the_same_floats(lam):
    eps = np.finfo(float).eps
    d = jittered_stack(keyed_rng(1, "orient3d", repr(lam)), 40, 4,
                       scale.derive(lam).r)
    d /= geometry.norm(d)[..., np.newaxis]
    got = geometry.orient3d(*(d[:, m] for m in range(4)))
    for r in range(len(d)):
        exact = _exact_det([[*row, 1.0] for row in d[r]])
        edges = math.prod(float(geometry.norm(d[r, m] - d[r, 0]))
                          for m in (1, 2, 3))
        # the docstring's bound: 8u times a permanent <= 3 sqrt(3) edges
        assert abs(Fraction(float(got[r])) - exact) <= 21 * eps * edges
        assert exact != 0


def _kernel_verdict(lam=lab.DEFAULT_LAM, seed=lab.DEFAULT_SEED):
    rep = lab.run_experiment("mixed-minor", lam, seed)
    (v,) = [v for v in rep.verdicts if v.name == "kernel_matches_closed_form"]
    return v.status


def _minor_without_one_minus_k(lam, *d):
    return np.abs(geometry.orient3d(*d)) / (2.0 * lam)


def _minor_over_lam(lam, *d):
    q = math.sqrt(1.0 + 4.0 * lam * lam)
    return np.abs(geometry.orient3d(*d)) / (lam * q * (q + 2.0 * lam))


def _laplace_with_one_sign_flipped(c1, c2, c3, c4):
    c = [np.asarray(v, dtype=float) for v in (c1, c2, c3, c4)]

    def term(j, k, l, m):
        return (geometry._minor2(c[j], c[k], 0, 1)
                * geometry._minor2(c[l], c[m], 2, 3))

    return np.abs(term(0, 1, 2, 3) - term(0, 2, 1, 3) + term(0, 3, 1, 2)
                  + term(1, 2, 0, 3) + term(1, 3, 0, 2) + term(2, 3, 0, 1))


@pytest.mark.parametrize("target,mutant", [
    ("defect_minor", _minor_without_one_minus_k),
    ("defect_minor", _minor_over_lam),
    ("mixed_minor4", _laplace_with_one_sign_flipped),
], ids=["drops-one-minus-k", "one-over-lam", "laplace-sign"])
def test_a_wrong_minor_fails_mixed_minor(monkeypatch, target, mutant):
    assert _kernel_verdict() == lab.PASS
    monkeypatch.setattr(geometry, target, mutant)
    assert _kernel_verdict() == lab.FAIL


def test_a_zero_wedge_fails_hadamard_at_every_default_rung(monkeypatch):
    # the floor scales with the columns, so no rung passes a zero wedge
    monkeypatch.setattr(geometry, "gram_det",
                        lambda a, b, c: np.zeros(np.shape(a)[:-1]))
    for lam in lab.LADDER_LAMS:
        rep = lab.run_experiment("mixed-minor", lam)
        (v,) = [v for v in rep.verdicts if v.name == "hadamard_inequality"]
        assert v.status == lab.FAIL, lam


def test_mixed_minor_does_not_fail_on_rounding_at_lam_65536():
    for seed in range(10):
        assert not lab.run_experiment("mixed-minor", 65536.0, seed).has_fail


def test_min_triple_brute_force_agreement():
    rng = keyed_rng(3, "geom-mintriple")
    for _ in range(50):
        v = rng.lognormal(size=6)
        best = min((v[i] * v[j] * v[k]) ** (1.0 / 3.0)
                   for (i, j, k) in geometry.TRIPLES)
        got = geometry.min_triple(v[None, :])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(best, rel=1e-14)
    with pytest.raises(ValueError):
        geometry.min_triple(np.ones((1, 5)))
    with pytest.raises(ValueError):
        geometry.min_triple(np.ones(6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                min_size=6, max_size=6))
def test_min_triple_never_exceeds_geometric_mean(vals):
    v = np.array(vals)
    geo = float(np.prod(v)) ** (1.0 / 6.0)
    assert geometry.min_triple(v[None, :])[0] <= geo * (1.0 + 1e-12)


def test_broad3_skips_degenerate_triples():
    # five copies of one normal and a lone second direction: every triple
    # contains a repeat, so every wedge vanishes
    n = np.tile(np.array([0.0, 0.0, 1.0]), (6, 1))
    n[5] = [1.0, 0.0, 0.0]
    with pytest.raises(geometry.DegenerateGeometryError):
        geometry.broad3(np.ones((1, 6)), n[None])
    # one degenerate row spoils the whole stack
    axes = np.repeat(np.eye(3), 2, axis=0)
    with pytest.raises(geometry.DegenerateGeometryError, match="row 1"):
        geometry.broad3(np.ones((2, 6)), np.stack([axes, n]))


def test_broad3_known_orthogonal_configuration():
    # normals = two copies of each coordinate axis; the only nonzero wedges
    # use one axis from each pair and have wedge exactly 1
    n = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0],
                  [0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.0]])
    vals = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
    best = min((vals[i] * vals[j] * vals[k]) ** (1.0 / 3.0)
               for i in (0, 1) for j in (2, 3) for k in (4, 5))
    got = geometry.broad3(vals[None, :], n[None])
    assert got.shape == (1,)
    assert got[0] == pytest.approx(best, rel=1e-14)


def test_broad3_validates_shapes():
    with pytest.raises(ValueError):
        geometry.broad3(np.ones((1, 5)), np.eye(6)[None])
    with pytest.raises(ValueError):
        geometry.broad3(np.ones((1, 6)), np.ones((1, 5, 4)))
    with pytest.raises(ValueError):
        geometry.broad3(np.ones((2, 6)), np.ones((1, 6, 4)))


# ---------------------------------------------------------------------------
# batch kernels against the scalar oracles, row by row
# ---------------------------------------------------------------------------

def _assert_rows_match_oracle(mags, normals):
    mt = geometry.min_triple(mags)
    b3 = geometry.broad3(mags, normals)
    for row in range(mags.shape[0]):
        assert mt[row] == pytest.approx(oracle.min_triple(mags[row]),
                                        rel=1e-15, abs=0.0)
        assert b3[row] == pytest.approx(
            oracle.broad3(mags[row], normals[row]), rel=1e-15, abs=0.0)


def test_triple_kernels_match_the_oracle_on_the_broad3_identity_stack():
    # broad3-identity's draws at seed 7 and its defaults: lam 256, 50k rows
    rng = keyed_rng(7, "broad3-identity", repr(256.0))
    mags = np.exp(rng.normal(size=(50_000, 6)))
    dirs = unit_vectors(rng, 6 * 200, 4).reshape(200, 6, 4)
    _assert_rows_match_oracle(mags[:200], dirs)
    # and a spread of the min_triple rows past the first 200
    mt = geometry.min_triple(mags)
    for row in range(200, 50_000, 97):
        assert mt[row] == pytest.approx(oracle.min_triple(mags[row]),
                                        rel=1e-15, abs=0.0)


_rows = st.shared(st.integers(min_value=1, max_value=5), key="rows")


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(float, _rows.map(lambda n: (n, 6)),
                  elements=st.floats(min_value=1e-3, max_value=1e3)),
       hnp.arrays(float, _rows.map(lambda n: (n, 6, 4)),
                  elements=st.floats(min_value=-1.0, max_value=1.0)))
def test_triple_kernels_match_the_oracle_on_hypothesis_stacks(mags, normals):
    norms = np.linalg.norm(normals, axis=-1, keepdims=True)
    assume(np.all(norms > 1e-3))
    normals = normals / norms
    try:
        oracle_rows = [oracle.broad3(mags[r], normals[r])
                       for r in range(mags.shape[0])]
    except geometry.DegenerateGeometryError:
        with pytest.raises(geometry.DegenerateGeometryError):
            geometry.broad3(mags, normals)
        return
    assert geometry.broad3(mags, normals) == pytest.approx(
        oracle_rows, rel=1e-15, abs=0.0)
    assert geometry.min_triple(mags) == pytest.approx(
        [oracle.min_triple(m) for m in mags], rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# row kernels: dot and norm are numpy's own row reductions, byte for byte
# ---------------------------------------------------------------------------

def _assert_row_kernels_match_numpy(u, v):
    assert (geometry.dot(u, v).tobytes()
            == np.sum(u * v, axis=-1).tobytes())
    assert (geometry.norm(v).tobytes()
            == np.linalg.norm(v, axis=-1).tobytes())


@pytest.mark.parametrize("shape", [(5000, 3), (5000, 4), (800, 6, 3)],
                         ids=str)
def test_row_kernels_match_numpy_byte_for_byte(shape):
    rng = keyed_rng(0, "row-kernels", repr(shape))
    u = rng.normal(size=shape)
    v = rng.normal(size=shape) * 10.0 ** rng.uniform(-150, 150, size=shape)
    # a row of -0.0 products, which numpy sums to +0.0
    u[0] = 0.0
    v[0] = -np.abs(v[0])
    _assert_row_kernels_match_numpy(u, v)
    _assert_row_kernels_match_numpy(v, u)


def test_row_kernels_broadcast_like_numpy():
    # the angles_from pattern: (k, 1, 3) anchors against (N, 3) rows
    rng = keyed_rng(0, "row-kernels-broadcast")
    anchors = rng.normal(size=(7, 1, 3))
    rows = rng.normal(size=(2000, 3))
    got = geometry.dot(anchors, rows)
    assert got.shape == (7, 2000)
    assert got.tobytes() == np.sum(anchors * rows, axis=-1).tobytes()
    _assert_row_kernels_match_numpy(anchors, anchors - rows)


_row_shape = st.shared(
    st.tuples(st.integers(min_value=1, max_value=6),
              st.sampled_from([(3,), (4,), (6, 3)])).map(
        lambda s: (s[0],) + s[1]),
    key="row-shape")
_signed_magnitude = st.one_of(
    st.just(0.0),
    st.builds(lambda m, sign: sign * m,
              st.floats(min_value=1e-150, max_value=1e150),
              st.sampled_from([-1.0, 1.0])))


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(float, _row_shape, elements=_signed_magnitude),
       hnp.arrays(float, _row_shape, elements=_signed_magnitude))
def test_row_kernels_match_numpy_on_hypothesis_rows(u, v):
    _assert_row_kernels_match_numpy(u, v)
