"""Scalar oracles for the batched triple kernels of geometry.py.

These are the one-sextuple-at-a-time definitions that ``geometry.min_triple``
and ``geometry.broad3`` replace: a Python loop over the twenty triples of
one row.  Tests compare the batch kernels against them row by row; nothing
outside tests uses them.
"""
from __future__ import annotations

import numpy as np

from decolab.errors import DegenerateGeometryError
from decolab.geometry import TRIPLES, wedge3_norm


def min_triple(values: np.ndarray) -> float:
    """min over triples {i<j<k} of |F_i F_j F_k|^(1/3) for six magnitudes.

    Algebraic fact used by the broad functional: this minimum never exceeds
    (prod_m |F_m|^(1/2))^(1/3), because each index sits in exactly 10 of the
    20 triples and the minimum is at most the geometric mean.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.shape != (6,):
        raise ValueError("expected six magnitudes")
    prods = [v[i] * v[j] * v[k] for (i, j, k) in TRIPLES]
    return float(np.min(prods) ** (1.0 / 3.0))


def broad3(values: np.ndarray, normals: np.ndarray) -> float:
    """Broad three-wave functional of six magnitudes and six unit normals.

    min over triples of |F_i F_j F_k|^(1/3) / |n_i ^ n_j ^ n_k|^(1/3); a
    triple whose wedge vanishes carries no transversality and is skipped.
    All twenty wedges zero means the configuration is degenerate.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.shape != (6,):
        raise ValueError("expected six magnitudes")
    n = np.asarray(normals, dtype=float)
    if n.shape[0] != 6 or n.ndim != 2:
        raise ValueError("expected six normals")
    best = None
    for (i, j, k) in TRIPLES:
        w = float(wedge3_norm(n[i], n[j], n[k]))
        if w == 0.0:
            continue
        q = (v[i] * v[j] * v[k]) ** (1.0 / 3.0) / w ** (1.0 / 3.0)
        if best is None or q < best:
            best = q
    if best is None:
        raise DegenerateGeometryError("all 20 normal triples have zero wedge")
    return best
