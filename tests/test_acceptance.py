"""Acceptance gate: seven criteria, one printed pass/fail line each.

Run with -s (or read the failure output) to see the table.  Every criterion
is deterministic: fixed seeds, fixed sample counts, stated tolerances.
"""
import math
import time

import numpy as np

import tube_oracle
from decolab import caps, geometry, lab, ledger, phase, scale, shell, tubes
from decolab.rng import keyed_rng

SEED = 7
S256 = scale.derive(256.0)
S64 = scale.derive(64.0)


def _criterion(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    line = f"[{status}] acceptance {num}/7: {desc}{tail}"
    print(line)
    assert ok, line


def _cluster_dirs(s, n, spread, key):
    return caps.clustered_dirs(keyed_rng(SEED, key, n),
                               np.array([0.0, 0.0, 1.0]), n, spread * s.alpha)


def test_1_ledger_goldens_exact():
    t0 = time.perf_counter()
    rows = ledger.checkpoint_table()
    mismatches = [r.name for r in rows if not r.match]
    elapsed = time.perf_counter() - t0
    _criterion(
        1, "exponent ledger re-derives every golden checkpoint exactly",
        not mismatches and elapsed < 1.0,
        f"{len(rows)} checkpoints, {elapsed * 1e3:.0f} ms, "
        f"mismatches: {mismatches or 'none'}",
    )


def test_2_exact_invariants_bulk():
    t0 = time.perf_counter()
    draws = 0
    failures = []

    # surface normals are unit vectors (300k shell frequencies)
    rng = keyed_rng(SEED, "acc-normals")
    v = rng.normal(size=(300_000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = rng.uniform(0.5 * S256.lam, 2.0 * S256.lam, size=300_000)
    dev = np.max(np.abs(np.linalg.norm(
        geometry.normal(radii[:, None] * v), axis=1) - 1.0))
    draws += 300_000
    if dev > 1e-12:
        failures.append(f"unit normal dev {dev:.2e}")

    # pointwise Cauchy-Schwarz over a dense tube family (200k cell points)
    fam = caps.CapFamily(scale=S256,
                         centers=_cluster_dirs(S256, 24, 0.5, "acc-cs"))
    xis = fam.xi()
    amps = (keyed_rng(SEED, "acc-cs-amps").normal(size=(2, 24)))
    amps = amps[0] + 1j * amps[1]
    abs2 = np.abs(amps) ** 2
    rng = keyed_rng(SEED, "acc-cs-points")
    worst_cs = 0.0
    for _ in range(4):
        t = rng.uniform(-S256.t_half, S256.t_half, size=50_000)
        u = rng.normal(size=(50_000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = S256.x_half * (rng.random(50_000) ** (1.0 / 3.0))[:, None] * u
        diff = x[:, None, :] - 2.0 * t[:, None, None] * xis[None, :, :]
        active = np.sum(diff * diff, axis=-1) <= S256.rho ** 2
        m = active.sum(axis=1)
        sums = (active * amps[None, :]).sum(axis=1)
        lhs = np.abs(sums) ** 2
        rhs = m * (active * abs2[None, :]).sum(axis=1)
        bad = lhs > rhs * (1.0 + 1e-12)
        if np.any(bad):
            k = int(np.argmax(lhs - rhs))
            failures.append(f"CS violated: lhs {lhs[k]} rhs {rhs[k]}")
            break
        worst_cs = max(worst_cs,
                       float(np.max(np.where(rhs > 0, lhs / np.maximum(rhs, 1e-300), 0.0))))
    draws += 200_000

    # minimal triple never exceeds the geometric mean (300k draws)
    rng = keyed_rng(SEED, "acc-mintriple")
    mags = np.exp(rng.normal(size=(300_000, 6)))
    mt = geometry.min_triple(mags)
    geo = np.prod(mags, axis=1) ** (1.0 / 6.0)
    draws += 300_000
    if not np.all(mt <= geo * (1.0 + 1e-12)):
        failures.append("min-triple exceeded the geometric mean")

    # cosine-form Gram determinant equals the brute determinant (200k)
    rng = keyed_rng(SEED, "acc-gram")
    w = rng.normal(size=(200_000, 3, 3))
    w /= np.linalg.norm(w, axis=2, keepdims=True)
    closed = geometry.gram_det3(w[:, 0], w[:, 1], w[:, 2])
    brute = np.linalg.det(w @ np.transpose(w, (0, 2, 1)))
    gdev = float(np.max(np.abs(closed - brute)))
    draws += 200_000
    if gdev > 1e-12:
        failures.append(f"gram identity dev {gdev:.2e}")

    # block-permuted sextuples cancel to the last bit (20k draws)
    xi = phase.sample_sextuple(S256, SEED, 20_000, kind="paired")
    for name, bad in (("mu6", phase.mu6(xi) != 0.0),
                      ("gradient", np.any(phase.grad_xprime(xi) != 0.0,
                                          axis=1))):
        if np.any(bad):
            failures.append(f"{name} != 0 at replicate {np.argmax(bad)}")
    draws += 20_000

    elapsed = time.perf_counter() - t0
    _criterion(
        2, "exact invariants hold over a bulk randomized sweep",
        not failures and draws >= 1_000_000 and elapsed < 60.0,
        f"{draws} draws, {elapsed:.1f} s, worst CS ratio {worst_cs:.12f}, "
        f"failures: {failures or 'none'}",
    )


def test_3_closed_form_oracles():
    checks = []

    est = tubes.mc_volume(tubes.Tube(scale=S256, xi=np.zeros(3)),
                          200_000, SEED)
    z_ball = (est.value - tubes.nested_ball_volume(S256)) / est.stderr
    checks.append(("static tube volume", abs(z_ball) <= 3.0,
                   f"z={z_ball:.2f}"))

    for tau in (0.0, 0.3, 0.45):
        bf = shell.band_fraction(S64, shell.hyperplane_poly(tau), 200_000,
                                 SEED, tag=f"acc-{tau}")
        exact = shell.hyperplane_fraction_exact(bf.beta, tau)
        z = (bf.value - exact) / bf.stderr
        checks.append((f"hyperplane band tau={tau}", abs(z) <= 3.0,
                       f"z={z:.2f}"))

    layer = tube_oracle.boundary_layer_mc(S256, 200_000, SEED)
    sigma = math.sqrt(0.125 * 0.875 / 200_000)
    z_layer = (layer.value - 0.125) / sigma
    checks.append(("1/8 boundary layer", abs(z_layer) <= 3.0,
                   f"z={z_layer:.2f}"))

    pts = keyed_rng(SEED, "acc-round").uniform(-0.5, 0.5, size=(50_000, 4))
    rt = float(np.max(np.abs(
        shell.anisotropic_inverse(S64, shell.anisotropic_forward(S64, pts))
        - pts)))
    checks.append(("anisotropic roundtrip", rt <= 1e-12, f"max={rt:.1e}"))

    bad = [f"{name} ({note})" for name, ok, note in checks if not ok]
    _criterion(
        3, "Monte Carlo estimates match closed-form oracles within 3 sigma",
        not bad,
        "; ".join(f"{name} {note}" for name, ok, note in checks),
    )


def test_4_scaling_ladders():
    vol = lab.run_ladder("tube-volume")
    res = lab.run_ladder("geometry-residual")
    # the angle map's exact range at one radius, and its sampled audit
    ranges = {}
    for lam in (256.0, 1024.0, 4096.0):
        rep = lab.run_experiment("bilipschitz", lam=lam)
        lo, hi = (rep.results["min_ratio_fixed"],
                  rep.results["max_ratio_fixed"])
        ranges[int(lam)] = (lo, hi, not rep.has_fail)
    ok = (not vol.has_fail and not res.has_fail
          and -3.2 <= vol.results["slope"] <= -2.8
          and -2.2 <= res.results["slope"] <= -1.8
          and all(0.5 <= lo and hi <= 2.0 and clean
                  for lo, hi, clean in ranges.values()))
    _criterion(
        4, "dyadic ladders reproduce the claimed scaling rates",
        ok,
        f"volume slope {vol.results['slope']:.4f}, residual slope "
        f"{res.results['slope']:.4f}, angle-map range and audit {ranges}",
    )


def test_5_combinatorial_invariants():
    failures = []
    counts = {}
    fams = {}
    for k in range(6, 13):
        lam = float(2 ** k)
        fam = caps.build_lattice(scale.derive(lam))
        fams[k] = fam
        n = len(fam)
        counts[k] = n
        if not lam ** (4.0 / 3.0) <= n <= 16.0 * lam ** (4.0 / 3.0):
            failures.append(f"count {n} out of window at lam=2^{k}")
    # the window is [65536, 1048576] at the top rung
    if not 65536 <= counts[12] <= 1048576:
        failures.append(f"top-rung count {counts[12]}")

    for k in (8, 12):
        fam = fams[k]
        if int(caps.ring_histogram(fam, 0).sum()) != len(fam) - 1:
            failures.append(f"ring partition broken at lam=2^{k}")

    # dense synthetic cluster: exhaustive pair check of the coloring
    for k in (8, 12):
        s = scale.derive(float(2 ** k))
        fam = caps.CapFamily(
            scale=s, centers=_cluster_dirs(s, 128, 3.0, f"acc-color-{k}"))
        pairs = caps.conflict_pairs(fam)
        colors = caps.greedy_color(pairs, len(fam))
        deg = np.bincount(pairs.ravel(), minlength=len(fam))
        if colors.max() + 1 > int(deg.max(initial=0)) + 1:
            failures.append(f"coloring exceeded max degree + 1 at 2^{k}")
        for i, j in pairs:
            if colors[i] == colors[j]:
                failures.append(f"improper coloring at 2^{k}")
                break

    # four-out-of-six selection, re-verified pair by pair
    s = scale.derive(256.0)
    d = phase.directions(phase.sample_sextuple(s, SEED, 100, kind="generic"))
    sel = caps.select_separated(d, s.alpha)
    if not np.all(sel.found):
        failures.append(f"generic sextuple {np.argmin(sel.found)} found no "
                        f"subset")
    else:
        rows = np.arange(100)[:, np.newaxis]
        a, b = np.triu_indices(4, 1)
        ang = geometry.angle_between(d[rows, sel.subset[:, a]],
                                     d[rows, sel.subset[:, b]])
        for rep in np.flatnonzero(np.any(ang < s.alpha, axis=1)):
            failures.append(f"subset pair too close at rep {rep}")
    d = phase.directions(phase.sample_sextuple(s, SEED, 100, kind="clustered5"))
    sel = caps.select_separated(d, s.alpha)
    if np.any(sel.found):
        failures.append(f"clustered5 sextuple {np.argmax(sel.found)} yielded "
                        f"a subset")

    _criterion(
        5, "combinatorial invariants hold exactly on every desk scale",
        not failures,
        f"counts {counts}, failures: {failures or 'none'}",
    )


def test_6_full_observational_suite():
    t0 = time.perf_counter()
    fail_verdicts = []
    observational = 0
    for name in lab.experiment_names():
        rep = lab.run_experiment(name)
        for v in rep.verdicts:
            if v.status == lab.FAIL:
                fail_verdicts.append(f"{name}:{v.name}")
            elif v.status == lab.OBSERVATIONAL:
                observational += 1
    elapsed = time.perf_counter() - t0
    _criterion(
        6, "every registered experiment completes with zero FAIL verdicts",
        not fail_verdicts and observational > 0,
        f"{len(lab.experiment_names())} experiments, {observational} "
        f"observational verdicts, {elapsed:.1f} s, "
        f"failures: {fail_verdicts or 'none'}",
    )


def test_7_reports_are_byte_reproducible(tmp_path):
    pairs = []
    for maker in (
        lambda: lab.run_experiment("tube-volume", lam=64.0, samples=20_000),
        lambda: lab.run_experiment("phase-coverage", lam=64.0, samples=30),
        lambda: lab.run_ladder("geometry-residual",
                               lams=(64.0, 128.0, 256.0), samples=2000),
    ):
        a, b = maker(), maker()
        pairs.append((a.experiment, a.canonical_json() == b.canonical_json()))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        a.write_json(p1)
        b.write_json(p2)
        pairs.append((a.experiment + ":file",
                      p1.read_bytes() == p2.read_bytes()))
    bad = [name for name, same in pairs if not same]
    _criterion(
        7, "canonical JSON reports are byte-identical across re-runs",
        not bad,
        f"{len(pairs)} comparisons, mismatches: {bad or 'none'}",
    )
