"""Working-set bounds of the kernels that set the ladders' peak memory.

tracemalloc sees numpy's array allocations, so each bound is on the
arrays a call holds at once: its result or its draws, plus a block.
"""
import tracemalloc

import numpy as np

from decolab import caps, lab, scale, tubes

MiB = 2 ** 20


def _traced_peak(call):
    """call()'s result and the most bytes it held at once."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_lattice_build_holds_its_coordinates_and_one_block():
    fam, peak = _traced_peak(lambda: caps.build_lattice(scale.derive(4096.0)))
    coordinates = fam.centers.nbytes
    assert coordinates == 12 * MiB
    assert peak <= coordinates + 2 * MiB


def test_the_tube_monte_carlo_holds_its_draws_and_one_block():
    samples = 200_000
    s = scale.derive(256.0)
    tube = tubes.Tube(scale=s, xi=s.lam * np.array([0.0, 0.6, 0.8]),
                      truncated=True, cap_index=0)
    est, peak = _traced_peak(lambda: tubes.mc_volume(tube, samples, seed=7))
    assert est.samples == samples
    draws = samples * 5 * 8         # t, a normal (n, 3) draw, the radii
    assert peak <= draws + 2 * MiB


def test_the_lam_64_probe_holds_two_small_gathers():
    res, peak = _traced_peak(lambda: lab.decoupling_probe(scale.derive(64.0),
                                                          seed=7))
    assert res.n_caps == 2048
    assert peak <= 13.5 * MiB
