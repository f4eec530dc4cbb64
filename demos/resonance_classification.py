"""Sextuple bookkeeping: exact cancellations and the two classifications.

A sextuple is two blocks of three on-shell frequencies.  The signed block
sums (of squared moduli and of transverse components) are computed with
compensated summation, so permuted blocks cancel to the last bit.  On top
of that sit two trichotomies: paired / transversal / neither, and
robust / narrow / neither.
"""
import collections

import numpy as np

from decolab import phase
from decolab.scale import derive

SEED = 7
S = derive(256.0)


def exact_cancellations():
    print("paired blocks, 500 draws: worst |mu6| and |grad| "
          "(both must be exactly zero):")
    xi = phase.sample_sextuple(S, SEED, 500, "paired")
    worst_mu = float(np.max(phase.mu6(xi), initial=0.0))
    worst_g = float(np.max(np.abs(phase.grad_xprime(xi)), initial=0.0))
    print(f"  worst mu6 = {worst_mu!r}, worst gradient component = {worst_g!r}")


def coverage_table():
    print("\nclassification coverage, 200 draws per sampler kind:")
    for kind in phase.SAMPLER_KINDS:
        xi = phase.sample_sextuple(S, SEED, 200, kind)
        baskets = collections.Counter(
            phase.classify_basket(phase.mu6(xi), S).tolist())
        tp = collections.Counter(phase.tp_dichotomy(xi, S).label.tolist())
        rn = collections.Counter(phase.rn_classify(xi, S, None).label.tolist())
        print(f"  {kind:10s} baskets {dict(baskets)}")
        print(f"  {'':10s} pairing  {dict(tp)}")
        print(f"  {'':10s} density  {dict(rn)}")


def witness_example():
    xi = phase.sample_sextuple(S, SEED, [0], "paired")
    res = phase.tp_dichotomy(xi, S)
    print(f"\none paired draw in detail: label {res.label.tolist()[0]!r}, witness "
          f"{tuple(res.witness[0].tolist())} (block-2 partner of each block-1 "
          f"index)")
    print(f"  thresholds: angular {res.angular_threshold:.2e}, radial "
          f"{res.radial_threshold[0]:.2e}, gradient {res.grad_threshold:.2e}")
    sizes = phase.single_linkage_sizes(phase.directions(xi), S.alpha)[0]
    print(f"  alpha-linkage cluster sizes of its six directions: "
          f"{tuple(n for n in sizes.tolist() if n)}")


def main():
    exact_cancellations()
    coverage_table()
    witness_example()


if __name__ == "__main__":
    main()
