"""Sampled sixth-power size of superposed on-shell waves.

For each small lam, superpose one unit wave per cap of the lattice with
either random phases or all-equal phases, sample the field on a grid over
the unit ball at t = 0, and compare its L6 average to the flat-count
reference sqrt(number of caps).  Every lattice cap has |xi| = lam, so time
only adds one phase shared by all caps and leaves |field| unchanged.  A
single cap gives ratio 1 exactly; random phases sit near the Gaussian
sixth-moment constant; equal phases focus and pay a large factor.
"""
import numpy as np

from decolab import caps
from decolab.lab import decoupling_probe, fit_slope
from decolab.scale import derive

SEED = 7


def single_cap_sanity():
    s = derive(64.0)
    one = caps.CapFamily(scale=s, centers=np.array([[0.0, 0.0, 1.0]]))
    res = decoupling_probe(s, SEED, family=one)
    print(f"single cap: ratio_random = {res.ratio_random!r}, "
          f"ratio_focusing = {res.ratio_focusing!r} (both exactly 1)")


def ladder():
    print("\nprobe ladder (6^(1/6) = %.4f is the Gaussian reference):"
          % (6.0 ** (1.0 / 6.0)))
    lams, rnd = [], []
    for lam in (4.0, 8.0, 16.0, 32.0, 64.0):
        s = derive(lam)
        res = decoupling_probe(s, SEED)
        lams.append(lam)
        rnd.append(res.ratio_random)
        print(f"  lam = {lam:4.0f}   caps {res.n_caps:5d}   random "
              f"{res.ratio_random:.4f}   focusing {res.ratio_focusing:8.3f}"
              f"   focusing / caps^(1/3) = "
              f"{res.ratio_focusing / res.n_caps ** (1 / 3):.4f}")
    fit = fit_slope(lams, rnd)
    print(f"  random-phase ratio slope in lam: {fit.slope:+.4f} "
          f"(flat means phase-square-root cancellation)")


def main():
    single_cap_sanity()
    ladder()


if __name__ == "__main__":
    main()
