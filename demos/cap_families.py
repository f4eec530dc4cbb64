"""Separated cap families on the direction sphere.

Builds the deterministic r-separated lattice across a dyadic ladder and
verifies its three invariants (separation, covering, count window), then
shows the angular-ring partition, first-fit coloring of a dense synthetic
cluster, and the four-out-of-six selection pigeonhole.
"""
import numpy as np

from decolab import caps, phase
from decolab.rng import keyed_rng
from decolab.scale import derive

SEED = 7


def lattice_table():
    print("lattice invariants across the ladder "
          "(separation >= r, covering <= 2r, count in [lam^4/3, 16 lam^4/3]):")
    rng = keyed_rng(SEED, "probes")
    probes = rng.normal(size=(20000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    for k in range(6, 12):
        s = derive(float(2 ** k))
        fam = caps.build_lattice(s)
        sep = caps.min_separation(fam) / s.r
        cov = caps.covering_probe(fam, probes) / s.r
        dens = len(fam) / s.lam ** (4.0 / 3.0)
        print(f"  lam = 2^{k:2d}   caps {len(fam):6d}   min sep {sep:.3f} r"
              f"   covering {cov:.3f} r   count / lam^(4/3) = {dens:.2f}")


def ring_partition():
    s = derive(256.0)
    fam = caps.build_lattice(s)
    hist = caps.ring_histogram(fam, 0)
    print(f"\nangular rings around cap 0 at lam = 256: "
          f"{hist.sum()} caps partitioned (family has {len(fam) - 1} others)")
    first = int(np.nonzero(hist)[0][0])
    occupied = int(np.count_nonzero(hist))
    print(f"  ring width alpha = {s.alpha:.2e} rad; first occupied ring {first} "
          f"(angle {first * s.alpha / s.r:.3f} r); {occupied} rings occupied")


def dense_coloring():
    s = derive(256.0)
    dirs = caps.clustered_dirs(keyed_rng(SEED, "cluster"),
                               np.array([0.0, 0.0, 1.0]), 64, 3.0 * s.alpha)
    fam = caps.CapFamily(scale=s, centers=dirs)
    colored = caps.greedy_color(fam)
    deg = caps.conflict_degrees(fam)
    print(f"\nfirst-fit coloring of a 64-direction sub-alpha cluster:")
    print(f"  conflict edges {len(caps.conflict_pairs(fam))}, max degree "
          f"{deg.max()}, colors used {colored.n_colors} "
          f"(bound {deg.max() + 1})")


def four_of_six():
    s = derive(256.0)
    gen = phase.directions(phase.sample_sextuple(s, SEED, 100, "generic"))
    found = int(caps.select_separated(gen, s.alpha).found.sum())
    cl = phase.directions(phase.sample_sextuple(s, SEED, 100, "clustered5"))
    blocked = 100 - int(caps.select_separated(cl, s.alpha).found.sum())
    print(f"\nfour separated directions out of six, 100 draws each:")
    print(f"  generic sextuples: subset found {found}/100")
    print(f"  five-in-a-cluster sextuples: correctly blocked {blocked}/100")


def main():
    lattice_table()
    ring_partition()
    dense_coloring()
    four_of_six()


if __name__ == "__main__":
    main()
