"""Differential geometry of the paraboloid frequency surface.

The surface is tau = |xi|^2 in R^3 x R.  Everything here is elementary but
is the substrate for the transversality experiments: unit normals, their
large-frequency asymptotics, angle bilipschitz control, Gram determinants of
normal triples, and the broad three-wave functional.  The bilipschitz
control is exact: on the sphere of one radius the normal angle is a function
of the direction angle alone, ``bilipschitz_profile``, whose range over
(0, pi] is closed form, and ``profile_bound`` says how far the sampled
kernel ``bilipschitz_ratio`` may sit from it in floating point.

Vector conventions: frequency points xi are (..., 3) arrays, normals are
(..., 4) arrays with the time-like component last.  All angle computations
use the half-angle form 2*atan2(|u-v|, |u+v|) on normalized vectors, which
stays accurate for both tiny and near-pi angles.
"""
from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateGeometryError

#: the 20 unordered triples out of six indices, in lexicographic order
TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.combinations(range(6), 3)
)
_TRIPLE_COLS = tuple(np.asarray(TRIPLES).T)

#: rows per block of the blocked row kernels: ``blockwise`` and its users
#: (``bilipschitz_ratio``, the sampled geometry-audit bodies in ``lab``,
#: the tube and band Monte Carlo), and ``caps``' spiral scans.  A block's
#: temporaries stay in cache instead of costing fresh pages per call.
#: Every operation in those kernels acts row by row, so the output does not
#: depend on the block size.
BLOCK_ROWS = 4096


def blockwise(fn: Callable, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """fn over blocks of BLOCK_ROWS rows of ``arrays``, its outputs joined.

    fn takes one block of each array and returns a tuple of arrays with one
    entry per row.  They are written into outputs preallocated as long as
    the arrays, so fn's temporaries never span more than a block.  fn must
    act row by row; then the outputs do not depend on the block.  Empty
    arrays make one empty block.
    """
    n = len(arrays[0])
    outs = ()
    for lo in range(0, max(n, 1), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        got = fn(*(a[rows] for a in arrays))
        if not outs:
            outs = tuple(np.empty((n,) + g.shape[1:], g.dtype) for g in got)
        for out, g in zip(outs, got):
            out[rows] = g
    return outs


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, broadcasting the leading axes.

    The products are added column by column, left to right, onto +0.0.
    On a last axis shorter than eight numpy's own sum of ``u * v`` over
    that axis adds in the same order from the same start, so the two agree
    bit for bit (a row of -0.0 products sums to +0.0 in both), and this is
    about three times faster on (n, 3) rows.  The package's dot products
    and lengths of 3- and 4-vectors go through here; ``np.einsum`` is as
    fast but rounds differently.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = u[..., 0] * v[..., 0]
    out += 0.0
    for k in range(1, u.shape[-1]):
        out += u[..., k] * v[..., k]
    return out


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis, sqrt(dot(v, v)); bit for bit
    numpy's ``linalg.norm`` along that axis when it is shorter than eight."""
    return np.sqrt(dot(v, v))


def normal(xi: np.ndarray) -> np.ndarray:
    """Unit normal (-2 xi, 1)/sqrt(1 + 4|xi|^2) of the surface tau = |xi|^2."""
    xi = np.asarray(xi, dtype=float)
    s2 = dot(xi, xi)[..., np.newaxis]
    scale = 1.0 / np.sqrt(1.0 + 4.0 * s2)
    return np.concatenate([-2.0 * xi * scale, scale], axis=-1)


def asymptotic_normal(xi: np.ndarray) -> np.ndarray:
    """First-order stand-in (-xi, 1/2)/|xi| for the normal at large frequency."""
    xi = np.asarray(xi, dtype=float)
    s = norm(xi)
    if np.any(s == 0.0):
        raise DegenerateGeometryError("asymptotic normal undefined at xi = 0")
    s = s[..., np.newaxis]
    return np.concatenate([-xi / s, 0.5 / s], axis=-1)


def normal_defect(xi: np.ndarray) -> np.ndarray:
    """Defect vector normal(xi) - asymptotic_normal(xi); size O(|xi|^-2)."""
    return normal(xi) - asymptotic_normal(xi)


def normal_residual(xi: np.ndarray) -> np.ndarray:
    """Euclidean size of the normal defect.  Decays like |xi|^-2 / 8."""
    return norm(normal_defect(xi))


def angle_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angle between vectors of any common dimension, in [0, pi].

    Inputs need not be normalized; a zero vector raises
    DegenerateGeometryError.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = norm(u)[..., np.newaxis]
    nv = norm(v)[..., np.newaxis]
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise DegenerateGeometryError("angle undefined for zero vectors")
    a = u / nu
    b = v / nv
    return 2.0 * np.arctan2(norm(a - b), norm(a + b))


def bilipschitz_ratio(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Ratio angle(n(xi), n(eta)) / angle(xi, eta).

    For coincident directions the ratio is 1 by the continuity convention
    when the normals also coincide, and +inf when they do not (parallel
    frequencies at different radii have distinct normals, so across radii
    the ratio has no upper bound).  At one radius lam the ratio is
    ``bilipschitz_profile(lam, angle(xi, eta))`` up to ``profile_bound``.
    The broadcast rows go through ``blockwise``; a single pair gives a
    float.
    """
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(eta, dtype=float))
    lead = xi.shape[:-1]

    def ratio(xi, eta):
        theta_dir = angle_between(xi, eta)
        theta_nor = angle_between(normal(xi), normal(eta))
        zero = theta_dir == 0.0
        return (np.where(zero, np.where(theta_nor == 0.0, 1.0, np.inf),
                         theta_nor / np.where(zero, 1.0, theta_dir)),)

    (out,) = blockwise(ratio, xi.reshape(-1, xi.shape[-1]),
                       eta.reshape(-1, eta.shape[-1]))
    out = out.reshape(lead)
    return float(out) if out.ndim == 0 else out


def bilipschitz_profile(lam: float, theta) -> np.ndarray:
    """The normal-map ratio at radius lam and direction angle theta, exact.

    Normals at |xi| = |eta| = lam have n.m = (4 lam^2 cos theta + 1) /
    (1 + 4 lam^2), so with s = theta/2 their chord is |n - m| =
    2 k sin s, k = 2 lam / sqrt(1 + 4 lam^2) < 1, and |n + m| =
    2 sqrt(1 + 4 lam^2 cos^2 s) / sqrt(1 + 4 lam^2).  The normal angle is
    2 atan2(2 lam sin s, sqrt(1 + 4 lam^2 cos^2 s)) = 2 asin(k sin s), and
    the ratio is asin(k sin s) / s for theta > 0 and its limit k at
    theta = 0.  A scalar theta gives a 0-d array.

    Range over (0, pi]: g(s) = asin(k sin s) has g' = k cos s /
    sqrt(1 - k^2 sin^2 s) >= 0, and g'^2 = k^2 (1 - t) / (1 - k^2 t) with
    t = sin^2 s falls as s grows, because k < 1.  So g is concave on
    [0, pi/2] with g(0) = 0, and the ratio g(s)/s does not increase with
    theta.  It falls from its supremum k (the limit theta -> 0) to its
    value at pi, asin(k) / (pi/2) = 2 atan(2 lam) / pi.

    The half-angle form is used because it is well conditioned everywhere:
    its rounding is at most 11 u relative (u = eps/2; sin, cos and arctan2
    within one ulp).  2 asin(k sin s) is not: near pi asin's slope is
    about 2 lam.  Nor is arccos(n.m) / theta, which cancels at small theta
    and loses every digit by theta = 1e-8.
    """
    theta = np.asarray(theta, dtype=float)
    s = 0.5 * theta
    phi = 2.0 * np.arctan2(2.0 * lam * np.sin(s),
                           np.sqrt(1.0 + 4.0 * lam * lam * np.cos(s) ** 2))
    limit = np.full(theta.shape, 2.0 * lam / np.sqrt(1.0 + 4.0 * lam * lam))
    return np.divide(phi, theta, out=limit, where=theta != 0.0)


def profile_bound(theta) -> np.ndarray:
    """Most |bilipschitz_ratio - bilipschitz_profile| at the kernel's own
    direction angle theta, for xi, eta of norm lam (1 +- 4.5 u), lam >= 2.

    In units of u = eps/2, first order, sin, cos and arctan2 within one
    ulp, and theta the exact angle of the float pair:
    * angle_between on 3-vectors: each unit vector is off by at most
      3.5 u, the sum and difference norms by 3.5 u relative plus 7 u, and
      with |a - b|^2 + |a + b|^2 = 4 the angle by 9 u theta + 10 u;
    * on the normals: n's components round once past their common scale
      (2 u of direction), the 4-vector unit vectors are off by 6 u, and the
      normal angle by 10 u phi + 17 u, plus 2.5 u because the radii are
      off lam by 4.5 u lam and the normal's tilt atan(2 r) moves by
      2 dr / (1 + 4 r^2);
    * the normal angle's slope in theta is at most 1 and phi <= theta, so
      the kernel's quotient, rounded once more, is off the exact profile
      at its theta by 20 u + 30 u / theta, and the profile's own rounding
      adds 11 u.
    In all, 31 u + 30 u / theta <= 16 eps (1 + 1/theta).
    """
    return 16.0 * np.finfo(float).eps * (1.0 + 1.0 / np.asarray(theta))


def gram_det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Gram determinant of three unit vectors via the pairwise-cosine form.

    det G = 1 - cab^2 - cac^2 - cbc^2 + 2 cab cac cbc, with cxy the cosine
    of the angle between x and y.  Inputs are assumed unit; gram-identity
    checks the identity against the minors of ``gram_det``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    cab = dot(a, b)
    cac = dot(a, c)
    cbc = dot(b, c)
    return 1.0 - cab * cab - cac * cac - cbc * cbc + 2.0 * cab * cac * cbc


def wedge3_norm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|a ^ b ^ c| for unit vectors: sqrt of the Gram determinant, clipped.

    The clip removes the negative-epsilon noise a degenerate triple leaves
    behind in floating point.
    """
    return np.sqrt(np.clip(gram_det3(a, b, c), 0.0, None))


def _minor2(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """2x2 minor a_i b_j - a_j b_i of two column vectors, rows i and j."""
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def gram_det(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Gram determinant of three column vectors, |a ^ b ^ c|^2, any length.

    Cauchy-Binet: the sum of squares of the 3x3 minors of [a b c], one per
    row triple, each expanded along c in the 2x2 minors of a and b.  The
    minors read the vectors' own entries, never a dot product: where the
    Gram determinant is tiny, dot products round first and lose it, while
    each minor here is off by a few eps times |a| |b| |c|, so the wedge
    sqrt(gram_det) is too (``test_geometry`` holds it to an exact oracle).
    Elementwise in a fixed order, so no BLAS kernel moves it.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    out = 0.0
    for i, j, k in itertools.combinations(range(a.shape[-1]), 3):
        m = (_minor2(a, b, i, j) * c[..., k] - _minor2(a, b, i, k) * c[..., j]
             + _minor2(a, b, j, k) * c[..., i])
        out = out + m * m
    return out


def mixed_minor4(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray,
                 c4: np.ndarray) -> np.ndarray:
    """Absolute 4x4 determinant of four column 4-vectors.

    Laplace expansion along rows (0, 1): each 2x2 minor of those rows times
    its complementary minor of rows (2, 3), signed, summed left to right.
    Elementwise in a fixed order, so no BLAS kernel moves it.
    """
    c = [np.asarray(v, dtype=float) for v in (c1, c2, c3, c4)]
    if any(v.shape[-1:] != (4,) for v in c):
        raise ConfigError(f"need four 4-vectors, got shapes "
                          f"{[v.shape for v in c]}")

    def term(j, k, l, m):
        return _minor2(c[j], c[k], 0, 1) * _minor2(c[l], c[m], 2, 3)

    return np.abs(term(0, 1, 2, 3) - term(0, 2, 1, 3) + term(0, 3, 1, 2)
                  + term(1, 2, 0, 3) - term(1, 3, 0, 2) + term(2, 3, 0, 1))


def min_triple(values: np.ndarray) -> np.ndarray:
    """Per row, min over triples {i<j<k} of |F_i F_j F_k|^(1/3); (n, 6) in.

    Algebraic fact used by the broad functional: this minimum never exceeds
    (prod_m |F_m|^(1/2))^(1/3), because each index sits in exactly 10 of the
    20 triples and the minimum is at most the geometric mean.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.ndim != 2 or v.shape[1] != 6:
        raise ConfigError(f"expected (n, 6) magnitudes, got shape {v.shape}")
    i, j, k = _TRIPLE_COLS
    return np.min(v[:, i] * v[:, j] * v[:, k], axis=1) ** (1.0 / 3.0)


def broad3(values: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Broad three-wave functional per row of six magnitudes and six normals.

    values is (n, 6) and normals (n, 6, k), unit.  Row-wise min over triples
    of |F_i F_j F_k|^(1/3) / |n_i ^ n_j ^ n_k|^(1/3); a triple whose wedge
    vanishes carries no transversality and is skipped.  A row with all
    twenty wedges zero is a degenerate configuration.
    """
    v = np.abs(np.asarray(values, dtype=float))
    n = np.asarray(normals, dtype=float)
    if v.ndim != 2 or v.shape[1] != 6:
        raise ConfigError(f"expected (n, 6) magnitudes, got shape {v.shape}")
    if n.ndim != 3 or n.shape[:2] != v.shape:
        raise ConfigError(f"expected {v.shape[0]} rows of six normals, "
                          f"got shape {n.shape}")
    i, j, k = _TRIPLE_COLS
    w = wedge3_norm(n[:, i], n[:, j], n[:, k])              # (n, 20)
    live = w != 0.0
    dead = np.nonzero(~live.any(axis=1))[0]
    if dead.size:
        raise DegenerateGeometryError(
            f"row {dead[0]}: all 20 normal triples have zero wedge")
    q = ((v[:, i] * v[:, j] * v[:, k]) ** (1.0 / 3.0)
         / np.where(live, w, 1.0) ** (1.0 / 3.0))
    return np.min(np.where(live, q, np.inf), axis=1)
