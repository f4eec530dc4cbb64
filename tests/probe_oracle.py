"""Dense oracle for lab.decoupling_probe.

This is the probe as one dense product: exp(i x.xi) for every (x2, x3)
column of the grid and every cap, one (nx, n) @ (n, nx^2) matmul per
amplitude set, and the masked mean of |F|^6 in (x1, x2, x3) order.  It
takes n·nx^2 complex exponentials and O(n·nx^2) memory, so tests run it at
lam <= 64 only.  Tests compare the blocked probe against it; nothing
outside tests uses it.
"""
from __future__ import annotations

import math

import numpy as np

from decolab import caps
from decolab.lab import PROBE_GRID_FACTOR, ProbeResult
from decolab.rng import keyed_rng
from decolab.scale import ScaleParams


def dense_probe(scale: ScaleParams, seed: int,
                grid_factor: int = PROBE_GRID_FACTOR,
                family: caps.CapFamily | None = None) -> ProbeResult:
    """The probe's sampled L6 ratios from the dense field product."""
    if family is None:
        family = caps.build_lattice(scale)
    xis = family.xi()
    n = len(family)
    rng = keyed_rng(seed, "probe", repr(float(scale.lam)), n)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n)

    n_axis = max(4, int(round(grid_factor * math.sqrt(scale.lam))))
    ax = (np.arange(n_axis) + 0.5) / n_axis - 0.5

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

    ratios = {}
    for tag, amps in (("random", np.exp(1j * phases)),
                      ("focusing", np.ones(n, dtype=complex))):
        field = (np.exp(1j * ph1) * amps) @ m2            # (nx, nx^2)
        p6 = (field.real ** 2 + field.imag ** 2) ** 3
        masked_mean = float(np.mean(p6[mask]))
        ratios[tag] = masked_mean ** (1.0 / 6.0) / math.sqrt(n)
    return ProbeResult(lam=scale.lam, n_caps=n, grid_per_axis=n_axis,
                       t_points=1, n_points=int(np.count_nonzero(mask)),
                       ratio_random=ratios["random"],
                       ratio_focusing=ratios["focusing"])
