"""Parabolic tubes in the space-time cell: volumes, overlaps, multiplicity.

The tube of a cap is a rho-thick neighbourhood of a line segment whose
slope is the cap's frequency center; at desk scales rho is twice the cell's
spatial half-width, so the tubes are fat and all meet near t = 0.  This
script measures volumes against closed forms, pair overlaps against the
analytic 1/separation bound, and the covering multiplicity of a dense
family.
"""
import math

import numpy as np

from decolab import caps, tubes
from decolab.lab import fit_slope
from decolab.rng import keyed_rng
from decolab.scale import derive

SEED = 7


def volume_scaling():
    print("tube volume across the ladder (expected slope -3):")
    lams, vols = [], []
    for k in range(6, 13):
        s = derive(float(2 ** k))
        fam = caps.build_lattice(s)
        est = tubes.mc_volume(tubes.tube_for_cap(fam, 0), 50_000, SEED)
        lams.append(s.lam)
        vols.append(est.value)
        print(f"  lam = 2^{k:2d}   volume {est.value:.3e} "
              f"+- {est.stderr:.1e}   envelope {tubes.cylinder_volume(s):.3e}")
    print(f"  fitted slope {fit_slope(lams, vols).slope:.4f}")


def closed_forms():
    s = derive(256.0)
    est = tubes.mc_volume(tubes.Tube(scale=s, xi=np.zeros(3)), 100_000, SEED)
    exact = tubes.nested_ball_volume(s)
    print(f"\nstatic tube vs closed form: {est.value:.4e} vs {exact:.4e} "
          f"(z = {(est.value - exact) / est.stderr:+.2f})")
    layer = tubes.boundary_layer_mc(s, 100_000, SEED)
    print(f"thin time layer fraction: {layer.value:.4f} vs exact "
          f"{tubes.BOUNDARY_LAYER_FRACTION}")


def pair_overlaps():
    s = derive(256.0)
    fam = caps.build_lattice(s)
    ang = fam.angles_from(0)
    ang[0] = math.inf
    print("\npair overlap against rho^3 min(rho/(lam delta), lam^-3/2):")
    target = s.r
    while target < 2.0:
        j = int(np.argmin(np.abs(ang - target)))
        delta = float(ang[j])
        est = tubes.mc_pair_overlap(tubes.tube_for_cap(fam, 0),
                                    tubes.tube_for_cap(fam, j),
                                    50_000, SEED)
        bound = tubes.pair_overlap_bound(s, delta)
        print(f"  delta = {delta:.4f}   overlap {est.value:.2e} "
              f"<= bound {bound:.2e}  (ratio {est.value / bound:.3f})")
        target *= 8.0


def multiplicity():
    s = derive(256.0)
    dirs = caps.clustered_dirs(keyed_rng(SEED, "mult-dirs"),
                               np.array([0.0, 0.0, 1.0]), 24, 0.5 * s.alpha)
    fam = caps.CapFamily(scale=s, centers=dirs)
    res = tubes.multiplicity_experiment(fam, samples=10_000, seed=SEED)
    print(f"\nmultiplicity over a 24-tube dense family (union measure):")
    print(f"  M range [{res.m_min}, {res.m_max}], weighted mean "
          f"{res.m_mean_weighted:.2f}")
    print(f"  threshold c*D = {res.threshold:.3f}; fraction below it "
          f"{res.fraction_below:.4f}")
    print(f"  union / (D^-1 sum of volumes) = {res.union_ratio:.4f}")


def overlap_sum():
    s = derive(64.0)
    fam = caps.build_lattice(s)
    res = tubes.l2_sum(fam, SEED, samples_per_pair=1024)
    print(f"\noverlap sum over the lam = 64 family ({res.n_caps} caps):")
    print(f"  diagonal {res.diagonal:.3e}, off-diagonal {res.off_diagonal:.3e}"
          f", total {res.total:.3e}")
    for row in res.rows[:4]:
        print(f"  band j={row.j}: {row.pair_count:6d} pairs, mean overlap "
              f"{row.mean_overlap:.2e}, analytic bound {row.analytic_bound:.2e}")


def main():
    volume_scaling()
    closed_forms()
    pair_overlaps()
    multiplicity()
    overlap_sum()


if __name__ == "__main__":
    main()
