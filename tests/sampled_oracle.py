"""Whole-array oracles for the blocked sampled experiments.

The geometry-audit bodies of ``lab`` and ``shell.band_fraction`` draw each
keyed stream whole and then compute ``geometry.blockwise``, BLOCK_ROWS rows
at a time.  These are the same computations with every row formed at once,
and with the draws normalized, scaled and shifted into fresh arrays rather
than in place.  Each body's oracle returns the report's results and the
outcome of the verdicts that rest on per-row checks; tests compare the two
with ``==``.  Nothing outside tests uses them.
"""
from __future__ import annotations

import math

import numpy as np

from decolab import geometry, shell
from decolab.geometry import BLOCK_ROWS
from decolab.rng import keyed_rng


def _unit_vectors(gen, n, dim=3):
    v = gen.normal(size=(n, dim))
    return v / geometry.norm(v)[:, np.newaxis]


def _jittered_stack(gen, n, k, spread):
    base = _unit_vectors(gen, n)
    jitter = gen.normal(size=(k, n, 3)).transpose(1, 0, 2)
    return base[:, np.newaxis, :] + spread * jitter


def geometry_residual(run) -> tuple[dict, dict]:
    lam = run.lam
    res = geometry.normal_residual(lam * _unit_vectors(run.rng(), run.samples))
    u = 1.0 / (4.0 * lam * lam)
    closed = u / (math.sqrt(1.0 + u) + 1.0)
    gap = np.abs(res - closed) / (5.0 * np.finfo(float).eps)
    return {
        "mean_residual": closed,
        "max_gap_over_bound": float(np.max(gap)),
        "times_eight_lam_sq": closed * 8.0 * lam * lam,
    }, {"matches_closed_form": bool(np.all(gap <= 1.0))}


def bilipschitz(run) -> tuple[dict, dict]:
    lam, samples = run.lam, run.samples
    rng = run.rng()
    xi = lam * _unit_vectors(rng, samples)
    eta = lam * _unit_vectors(rng, samples)
    theta = geometry.angle_between(xi, eta)
    gap = np.abs(geometry.bilipschitz_ratio(xi, eta)
                 - geometry.bilipschitz_profile(lam, theta))
    lo = 2.0 * math.atan(2.0 * lam) / math.pi
    hi = 2.0 * lam / math.sqrt(1.0 + 4.0 * lam * lam)
    return {
        "min_ratio_fixed": lo,
        "max_ratio_fixed": hi,
        "max_ratio_band": None,
    }, {"sampled_ratios_match_profile":
        bool(np.all(gap <= geometry.profile_bound(theta)))}


def gram_identity(run) -> tuple[dict, dict]:
    lam, samples = run.lam, run.samples
    rng = run.rng()
    v = _unit_vectors(rng, 3 * samples, 4).reshape(samples, 3, 4)
    closed = geometry.gram_det3(v[:, 0], v[:, 1], v[:, 2])
    brute = geometry.gram_det(v[:, 0], v[:, 1], v[:, 2])
    d = _jittered_stack(rng, samples, 3, run.scale.r)
    n = geometry.normal(lam * d / geometry.norm(d)[..., np.newaxis])
    closed_c = geometry.gram_det3(n[:, 0], n[:, 1], n[:, 2])
    brute_c = geometry.gram_det(n[:, 0], n[:, 1], n[:, 2])
    results = {
        "max_abs_diff_generic": float(np.max(np.abs(closed - brute))),
        "max_abs_diff_clustered": float(np.max(np.abs(closed_c - brute_c))),
        "min_gram_clustered": float(np.min(closed_c)),
    }
    worst = max(results["max_abs_diff_generic"],
                results["max_abs_diff_clustered"])
    return results, {"cosine_form_equals_det": worst <= 1e-12}


def broad3_identity(run) -> tuple[dict, dict]:
    mags = np.exp(run.rng().normal(size=(run.samples, 6)))
    mt = geometry.min_triple(mags)
    geo = np.prod(mags, axis=1) ** (1.0 / 6.0)
    return {"min_margin": float(np.min(geo / mt))}, {"min_triple_leq_geometric_mean": bool(np.all(
        mt <= geo * (1.0 + 1e-12)))}


def mixed_minor(run) -> tuple[dict, dict]:
    lam, eps = run.lam, np.finfo(float).eps
    d = _jittered_stack(run.rng(), run.samples, 4, run.scale.r)
    dirs = d / geometry.norm(d)[..., np.newaxis]
    det = geometry.defect_minor(lam, *(dirs[:, m] for m in range(4)))
    audit = dirs[:BLOCK_ROWS]
    a1, a2, a3, a4 = (geometry.asymptotic_normal(lam * audit[:, m])
                      for m in range(4))
    rho4 = geometry.normal_defect(lam * audit[:, 3])
    kernel = geometry.mixed_minor4(a1, a2, a3, rho4)
    wedge = np.sqrt(geometry.gram_det(a1, a2, a3))
    p3 = geometry.norm(a1) * geometry.norm(a2) * geometry.norm(a3)
    n4 = geometry.norm(rho4)
    over = kernel / (wedge * n4 + 80.0 * eps * p3 * n4)
    rows = np.array([1.0, 1.0, 1.0, 2.0 * lam])
    b1, b2, b3, b4, r4 = (v * rows for v in (a1, a2, a3, a4, rho4))
    wedge_b = np.sqrt(geometry.gram_det(b1, b2, b3))
    p3_b = geometry.norm(b1) * geometry.norm(b2) * geometry.norm(b3)
    n4_b = geometry.norm(r4)
    edges = math.prod(geometry.norm(audit[:, m] - audit[:, 0])
                      for m in (1, 2, 3))
    closed = det[:BLOCK_ROWS]
    gap = np.abs(kernel - closed) / (eps * (
        (50.0 * p3_b * n4_b
         + 5.0 * geometry.norm(b4) * (wedge_b + 42.0 * eps * p3_b))
        / (2.0 * lam) + 2.0 * edges / lam ** 3 + 4.0 * closed))
    return {
        "max_abs_det": float(np.max(det)),
        "mean_abs_det": float(np.mean(det)),
        "max_det_over_bound": float(np.max(over)),
        "max_gap_over_bound": float(np.max(gap)),
        "det_times_lam_10_3": float(np.max(det) * lam ** (10.0 / 3.0)),
    }, {"hadamard_inequality": bool(np.all(over <= 1.0)),
        "kernel_matches_closed_form": bool(np.all(gap <= 1.0))}


def band_fraction(scale, poly, samples, seed, tag="band") -> shell.BandFraction:
    deg = poly.degree
    beta = shell.band_width(scale, deg)
    rng = keyed_rng(seed, "shell-fraction", tag, repr(scale.lam), deg)
    pts = rng.uniform(-0.5, 0.5, size=(samples, 4))
    frac = int(np.count_nonzero(shell.band_membership(poly, pts, beta))) \
        / samples
    return shell.BandFraction(
        value=frac,
        stderr=math.sqrt(max(frac * (1.0 - frac), 0.0) / samples),
        samples=samples, degree=deg, beta=beta)
