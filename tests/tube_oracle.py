"""Whole-array oracles for tubes.mc_volume and tubes.mc_pair_overlap, and
the sampled boundary layer.

These draw the samples, place every one, and test every one against each
tube with ``tubes.membership`` (or against the layer), all at once.  The
package reads the same keyed stream in the same order but places and
tests the draws a block of rows at a time; tests compare the two with
``==``.  The package computes the boundary-layer fraction exactly and
samples nothing; ``boundary_layer_mc`` is the sampled check of that 1/8
which acceptance #3 keeps.  Nothing outside tests uses them.
"""
from __future__ import annotations

import numpy as np

from decolab import tubes
from decolab.geometry import norm
from decolab.rng import (MCEstimate, binomial_estimate, keyed_rng,
                         unit_vectors)


def sample_cylinder(tube: tubes.Tube, n: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples of the cylinder envelope around the tube axis."""
    s = tube.scale
    t = rng.uniform(-s.t_half, s.t_half, size=n)
    ball = unit_vectors(rng, n) * (rng.random(n) ** (1.0 / 3.0))[:, None]
    return t, 2.0 * t[:, None] * tube.xi + s.rho * ball


def mc_volume(tube: tubes.Tube, samples: int, seed: int) -> MCEstimate:
    rng = keyed_rng(seed, "tube-volume", repr(tube.scale.lam), tube.cap_index,
                    int(tube.truncated))
    t, x = sample_cylinder(tube, samples, rng)
    hits = int(np.count_nonzero(tubes.membership(tube, t, x)))
    return binomial_estimate(hits, samples, tubes.cylinder_volume(tube.scale))


def mc_pair_overlap(t1: tubes.Tube, t2: tubes.Tube, samples: int,
                    seed: int) -> MCEstimate:
    rng = keyed_rng(seed, "pair-overlap", repr(t1.scale.lam), t1.cap_index,
                    t2.cap_index)
    t, x = sample_cylinder(t1, samples, rng)
    both = tubes.membership(t1, t, x) & tubes.membership(t2, t, x)
    return binomial_estimate(int(np.count_nonzero(both)), samples,
                             tubes.cylinder_volume(t1.scale))


def boundary_layer_mc(scale, samples: int, seed: int) -> MCEstimate:
    rng = keyed_rng(seed, "boundary-layer", repr(scale.lam))
    t = rng.uniform(-scale.t_half, scale.t_half, size=samples)
    ball = unit_vectors(rng, samples) * (rng.random(samples)
                                         ** (1.0 / 3.0))[:, None]
    layer = ((np.abs(t) <= scale.lam ** (-1.5) / 16.0)
             & (norm(scale.x_half * ball) <= 2.0 * scale.rho))
    return binomial_estimate(int(np.count_nonzero(layer)), samples, 1.0)
