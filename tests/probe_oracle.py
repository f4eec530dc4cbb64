"""Oracles for lab.decoupling_probe, on the probe's own grid.

``dense_probe`` is the probe as one dense product: exp(i x.xi) for every
(x2, x3) column of the grid and every cap, one (nx, n) @ (n, nx^2) matmul
per amplitude set, and the masked mean of |F|^6 in (x1, x2, x3) order.  It
takes n·nx^2 complex exponentials and O(n·nx^2) memory, so tests run it at
lam <= 64 only.

``blocked_probe`` is the full-cylinder blocked GEMM: every x1 row of both
amplitude sets, (2 nx, n) @ (n, 32), against each block of 32 disk columns
in (x2, x3) order.  Its rows are padded with zeros to a multiple of 6 and
its last block overlaps the one before, so that, as in the probe, each
GEMM is whole OpenBLAS micro-tiles and no sum depends on where it falls.
The probe trims each block to the rows its ball needs and mirrors the
focusing field; on the same grid it must give the same bits as this.
Nothing outside tests uses either.
"""
from __future__ import annotations

import math

import numpy as np

from decolab import caps
from decolab.lab import (PROBE_GRID_FACTOR, ProbeResult, _PROBE_BLOCK,
                         _one_blas_thread)
from decolab.rng import keyed_rng
from decolab.scale import ScaleParams


def probe_grid(n_axis: int) -> np.ndarray:
    """The probe's midpoints on [-1/2, 1/2]: (2k + 1 - nx) / (2 nx)."""
    return (2 * np.arange(n_axis) + 1 - n_axis) / (2 * n_axis)


def _setup(scale, seed, grid_factor, family):
    """The lattice, the random amplitudes, the grid size and its midpoints."""
    if family is None:
        family = caps.build_lattice(scale)
    n = len(family)
    rng = keyed_rng(seed, "probe", repr(float(scale.lam)), n)
    amps = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
    n_axis = max(4, int(round(grid_factor * math.sqrt(scale.lam))))
    return family, amps, n_axis, probe_grid(n_axis)


def _result(scale, n, n_axis, mask, p_random, p_focusing):
    ratio_random, ratio_focusing = (
        float(np.mean(p[mask])) ** (1.0 / 6.0) / math.sqrt(n)
        for p in (p_random, p_focusing))
    return ProbeResult(lam=scale.lam, n_caps=n, grid_per_axis=n_axis,
                       t_points=1, n_points=int(np.count_nonzero(mask)),
                       ratio_random=ratio_random,
                       ratio_focusing=ratio_focusing)


def dense_probe(scale: ScaleParams, seed: int,
                grid_factor: int = PROBE_GRID_FACTOR,
                family: caps.CapFamily | None = None) -> ProbeResult:
    """The probe's sampled L6 ratios from the dense field product."""
    family, amps, n_axis, ax = _setup(scale, seed, grid_factor, family)
    xis = family.xi()
    n = len(family)

    # tensor split: x1 against (x2, x3), joined by one matmul per panel
    ph1 = ax[:, np.newaxis] * xis[:, 0]                   # (nx, n)
    ph2 = (ax[:, np.newaxis, np.newaxis] * xis[:, 1]
           + ax[np.newaxis, :, np.newaxis] * xis[:, 2])
    m2 = 1j * ph2
    np.exp(m2, out=m2)              # in place: the probe's largest buffer
    m2 = m2.reshape(-1, n).T                              # (n, nx^2)

    # spatial ball mask |x| <= 1/2, flattened in (x1, x2, x3) order
    r2 = (ax[:, None, None] ** 2 + ax[None, :, None] ** 2
          + ax[None, None, :] ** 2)
    mask = (r2 <= 0.25).reshape(n_axis, -1)               # (nx, nx^2)

    p_random, p_focusing = (
        (f.real ** 2 + f.imag ** 2) ** 3
        for f in ((np.exp(1j * ph1) * a) @ m2
                  for a in (amps, np.ones(n, dtype=complex))))
    return _result(scale, n, n_axis, mask, p_random, p_focusing)


def blocked_probe(scale: ScaleParams, seed: int,
                  grid_factor: int = PROBE_GRID_FACTOR,
                  family: caps.CapFamily | None = None) -> ProbeResult:
    """The probe's sampled L6 ratios from the full-cylinder blocked GEMM."""
    family, amps, n_axis, ax = _setup(scale, seed, grid_factor, family)
    xis = family.xi()
    n = len(family)

    e = 1j * (ax[:, np.newaxis] * xis.T[:, np.newaxis, :])
    e1, e2, e3 = np.exp(e, out=e)                           # (3, nx, n)
    left = np.concatenate((e1 * amps, e1, np.zeros((-2 * n_axis % 6, n))))

    sq = ax ** 2
    j2, j3 = np.nonzero(sq[:, np.newaxis] + sq <= 0.25)
    mask = sq[:, np.newaxis] + sq[j2] + sq[j3] <= 0.25     # (nx, ncol)

    ncol = j2.size
    p6 = np.empty((len(left), ncol))
    with _one_blas_thread():
        for lo in range(0, ncol, _PROBE_BLOCK):
            cols = slice(max(0, min(lo, ncol - _PROBE_BLOCK)),
                         lo + _PROBE_BLOCK)
            block = e2[j2[cols]] * e3[j3[cols]]              # (blk, n)
            field = left @ block.T
            p6[:, cols] = (field.real ** 2 + field.imag ** 2) ** 3
    return _result(scale, n, n_axis, mask, p6[:n_axis],
                   p6[n_axis:2 * n_axis])
