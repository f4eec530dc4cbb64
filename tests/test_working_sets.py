"""Working-set bounds of the kernels and the sampled experiments that set
the registry's and the ladders' peak memory.

tracemalloc sees numpy's array allocations, so each bound is on the
arrays a call holds at once: its result or its draws, plus a block.  A
sampled experiment draws each keyed stream whole and computes on it a
block of rows at a time, so its bound is its largest live draw plus
3 MiB: one block's temporaries (the most, about 2.6 MiB, are the triple
products of broad3-identity's min_triple) and its one-per-row outputs.
"""
import tracemalloc

import numpy as np
# numpy loads numpy.random on first use: 0.6 MiB of module state that no
# bound here is about, so it is loaded before any trace
import numpy.random  # noqa: F401
import pytest

from decolab import caps, lab, scale, shell, tubes

MiB = 2 ** 20


def _traced_peak(call):
    """call()'s result and the most bytes it held at once."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_lattice_build_holds_its_coordinates_and_one_block():
    # the build and its check hold one block of rows; the 12 MiB of
    # coordinates are laid down, in blocks, only when centers is read
    fam, peak = _traced_peak(lambda: caps.build_lattice(scale.derive(4096.0)))
    assert peak <= 1 * MiB
    centers, peak = _traced_peak(lambda: fam.centers)
    assert centers.nbytes == 12 * MiB
    assert peak <= centers.nbytes + 2 * MiB


def test_the_cap_lattice_experiment_holds_no_coordinates():
    rep, peak = _traced_peak(lambda: lab.run_experiment("cap-lattice",
                                                        4096.0))
    assert rep.results["n_caps"] == 524_288     # 12 MiB of coordinates
    assert peak <= 3 * MiB


#: (experiment, lam, its largest live draw in bytes at its default samples)
SAMPLED = [
    ("bilipschitz", 4096.0, 4096 * (3 + 3) * 8),          # u and v
    ("gram-identity", 256.0, 50_000 * 3 * 4 * 8),          # the 4-vectors
    ("broad3-identity", 256.0, 50_000 * 6 * 8),             # magnitudes
    ("mixed-minor", 4096.0, 20_000 * (3 + 4 * 3) * 8),      # stack of four
    ("boundary-layer", 256.0, 0),                     # draws nothing
    ("hyperplane-shell", 256.0, 4096 * 4 * 8),        # midpoints in t
]


@pytest.mark.parametrize("name,lam,draws", SAMPLED,
                         ids=[name for name, _, _ in SAMPLED])
def test_a_sampled_experiment_holds_its_draws_and_one_block(name, lam,
                                                            draws):
    rep, peak = _traced_peak(lambda: lab.run_experiment(name, lam))
    assert rep.params["samples"] == lab.REGISTRY[name].default_samples
    assert peak <= draws + 3 * MiB


def test_a_band_fraction_holds_its_points_and_one_block():
    samples = 200_000
    s = scale.derive(256.0)
    bf, peak = _traced_peak(lambda: shell.band_fraction(
        s, shell.random_poly(s, 1, seed=7), samples, seed=7))
    assert bf.samples == samples
    assert peak <= samples * 4 * 8 + 2 * MiB


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
