import ctypes
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import decolab
import probe_oracle
from decolab import caps, lab, scale
from decolab.errors import ConfigError, DecolabError
from decolab.rng import keyed_rng


EXPECTED_NAMES = {
    "scale-table", "ledger-goldens",
    "geometry-residual", "bilipschitz", "gram-identity", "broad3-identity",
    "mixed-minor",
    "cap-lattice", "annulus-partition", "greedy-coloring", "select-four",
    "tube-volume", "nested-ball", "boundary-layer", "pair-overlap",
    "l2-sum", "multiplicity",
    "phase-coverage", "paired-identities",
    "anisotropic-roundtrip", "hyperplane-shell", "shell-ensemble",
    "probe-single-cap", "probe-curve",
}


def test_registry_contents():
    assert set(lab.experiment_names()) == EXPECTED_NAMES
    for name in lab.experiment_names():
        exp = lab.REGISTRY[name]
        assert exp.summary
        assert exp.default_lam in lab.LADDER_LAMS or exp.default_lam == 256.0


def test_fit_slope_recovers_exact_power_law():
    lams = np.array([64.0, 128.0, 256.0, 512.0])
    fit = lab.fit_slope(lams, 3.0 * lams ** -2.5)
    assert fit.slope == pytest.approx(-2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.max_log_residual < 1e-12
    assert fit.n_points == 4


def test_fit_slope_matches_the_lapack_fit():
    # np.polyfit stays here as a tests-only oracle; fit_slope's closed
    # form over math.fsum rounds the same on every BLAS kernel
    rng = keyed_rng(0, "fit-slope")
    for k in range(3, 12):
        lams = 2.0 ** np.sort(rng.choice(np.arange(1, 16), k, replace=False))
        values = np.exp(rng.normal(size=k)) * lams ** rng.uniform(-4.0, 4.0)
        fit = lab.fit_slope(lams, values)
        slope, intercept = np.polyfit(np.log(lams), np.log(values), 1)
        assert abs(fit.slope - slope) <= 1e-12
        assert abs(fit.intercept - intercept) <= 1e-12


def test_fit_slope_guards():
    with pytest.raises(ValueError):
        lab.fit_slope([64.0, 128.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        lab.fit_slope([64.0, 128.0, 256.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        lab.fit_slope([64.0, 128.0, 256.0], [1.0, 2.0])


def test_jsonify_conversions():
    out = lab._jsonify({
        "frac": Fraction(3, 4),
        "np_f": np.float64(1.5),
        "np_i": np.int64(7),
        "arr": np.arange(3),
        "nested": {"t": (1, 2.5)},
    })
    assert out == {"frac": "3/4", "np_f": 1.5, "np_i": 7,
                   "arr": [0, 1, 2], "nested": {"t": [1, 2.5]}}
    assert json.dumps(out)
    with pytest.raises(TypeError):
        lab._jsonify(object())


def test_verdict_helpers():
    assert lab._ok("x", True).status == lab.PASS
    assert lab._ok("x", False).status == lab.FAIL
    assert lab._obs("x", "d").status == lab.OBSERVATIONAL


def test_run_experiment_unknown_name():
    with pytest.raises(lab.UnknownExperimentError):
        lab.run_experiment("does-not-exist")


def test_run_experiment_basic_report():
    rep = lab.run_experiment("scale-table")
    assert rep.experiment == "scale-table"
    assert rep.lam == lab.DEFAULT_LAM
    assert rep.seed == lab.DEFAULT_SEED
    assert rep.wall_time_s is not None and rep.wall_time_s >= 0.0
    assert not rep.has_fail
    assert rep.verdicts
    # an explicit lam overrides the default
    rep64 = lab.run_experiment("scale-table", lam=64.0)
    assert rep64.lam == 64.0


def test_run_experiment_without_lam():
    rep = lab.run_experiment("ledger-goldens")
    assert rep.lam is None
    assert not rep.has_fail
    assert "lam:" not in rep.text().splitlines()[1]


def test_canonical_json_is_reproducible_and_unclocked():
    a = lab.run_experiment("scale-table", lam=64.0)
    b = lab.run_experiment("scale-table", lam=64.0)
    assert a.canonical_json() == b.canonical_json()
    doc = json.loads(a.canonical_json())
    assert doc["wall_time_s"] is None
    assert doc["experiment"] == "scale-table"
    statuses = {v["status"] for v in doc["verdicts"]}
    assert statuses <= {lab.PASS, lab.FAIL, lab.OBSERVATIONAL}


def test_text_rendering_mentions_wall_time():
    rep = lab.run_experiment("scale-table")
    txt = rep.text()
    assert txt.startswith("experiment: scale-table")
    assert "wall" in txt
    for v in rep.verdicts:
        assert v.name in txt


def test_csv_requires_a_row_table():
    rep = lab.run_experiment("scale-table")
    with pytest.raises(ValueError):
        rep.csv_rows()


def test_csv_round_trip():
    rep = lab.run_experiment("hyperplane-shell", lam=64.0, samples=5000)
    rows = rep.csv_rows()
    assert rows
    text = rep.csv()
    header = text.splitlines()[0].split(",")
    assert header == list(rows[0].keys())
    assert len(text.strip().splitlines()) == len(rows) + 1


def test_write_json(tmp_path):
    rep = lab.run_experiment("scale-table", lam=64.0)
    path = tmp_path / "rep.json"
    rep.write_json(path)
    assert path.read_text() == rep.canonical_json()
    assert json.loads(path.read_text())["lam"] == 64.0


def test_run_ladder_requires_metric():
    with pytest.raises(ValueError):
        lab.run_ladder("scale-table")
    with pytest.raises(lab.UnknownExperimentError):
        lab.run_ladder("does-not-exist")


@pytest.mark.parametrize("call", [
    lambda: lab.run_experiment("cap-lattice", 1.0),
    lambda: lab.run_ladder("cap-lattice", lams=(64, 128, float("nan"))),
], ids=["experiment-lam-1", "ladder-nan-rung"])
def test_bad_lam_is_a_typed_error_before_any_lattice(call, monkeypatch):
    def no_lattice(scale):
        raise AssertionError("the lattice was built")
    monkeypatch.setattr(caps, "build_lattice", no_lattice)
    with pytest.raises(DecolabError, match="must be >= 2"):
        call()


def test_a_ladder_of_one_repeated_rung_is_a_typed_error(monkeypatch):
    # three rungs at one lam would fit a slope to a single point
    def no_lattice(scale):
        raise AssertionError("the lattice was built")
    monkeypatch.setattr(caps, "build_lattice", no_lattice)
    with pytest.raises(ConfigError, match="distinct lams"):
        lab.run_ladder("cap-lattice", lams=(64.0, 64.0, 64.0))


def test_run_ladder_report_shape():
    rep = lab.run_ladder("geometry-residual", lams=(64.0, 128.0, 256.0),
                         samples=2000)
    assert rep.experiment == "ladder:geometry-residual"
    assert rep.results["metric"] == "mean_residual"
    assert len(rep.results["rows"]) == 3
    assert not rep.has_fail
    names = [v.name for v in rep.verdicts]
    assert names == ["per_lam_experiments_clean", "fitted_slope"]
    assert -2.2 <= rep.results["slope"] <= -1.8


def test_run_ladder_without_window_is_observational():
    rep = lab.run_ladder("geometry-residual", lams=(64.0, 128.0, 256.0),
                         samples=2000)
    statuses = [v.status for v in rep.verdicts]
    assert lab.OBSERVATIONAL in statuses
    assert not rep.has_fail


def test_probe_guard_rejects_large_lam():
    # lam 512 at the default grid: 136 points per axis against lam/pi = 163
    with pytest.raises(ConfigError, match="Nyquist"):
        lab.decoupling_probe(scale.derive(512.0), seed=1)


def test_probe_guards_fire_before_the_lattice(monkeypatch):
    def no_lattice(scale):
        raise AssertionError("the lattice was built")
    monkeypatch.setattr(caps, "build_lattice", no_lattice)
    with pytest.raises(ConfigError, match="Nyquist"):
        lab.decoupling_probe(scale.derive(512.0), seed=1)
    # at lam 256 (96 points per axis) each cap costs 16 (6 96 + 96) bytes,
    # so 100,000 caps pass the 1 GiB PROBE_MAX_BYTES
    s = scale.derive(256.0)
    many = caps.CapFamily(s, np.broadcast_to([0.0, 0.0, 1.0], (100_000, 3)))
    with pytest.raises(ConfigError, match="MiB"):
        lab.decoupling_probe(s, seed=1, family=many)


def test_probe_runs_at_lam_128():
    res = lab.decoupling_probe(scale.derive(128.0), seed=1)
    assert res.n_caps == 5161
    assert res.grid_per_axis == 68
    assert 1.0 < res.ratio_random < res.ratio_focusing


@pytest.mark.parametrize("lam", [4.0, 8.0, 16.0, 32.0, 64.0])
def test_probe_matches_the_dense_oracle(lam):
    s = scale.derive(lam)
    family = caps.build_lattice(s)
    for seed in range(5):
        got = lab.decoupling_probe(s, seed, family=family)
        want = probe_oracle.dense_probe(s, seed, family=family)
        assert got.n_points == want.n_points
        assert got.ratio_random == pytest.approx(want.ratio_random,
                                                 rel=1e-14, abs=0)
        assert got.ratio_focusing == pytest.approx(want.ratio_focusing,
                                                   rel=1e-14, abs=0)


def _ball_values(probe, s, seed, family, monkeypatch):
    """probe's result and the |F|^6 arrays it hands np.mean, in order."""
    seen, mean = [], np.mean

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return mean(a, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(np, "mean", spy)
        return probe(s, seed, family=family), seen


def _equals_the_full_cylinder_gemm(probe, lam, monkeypatch):
    s = scale.derive(lam)
    family = caps.build_lattice(s)
    for seed in range(5):
        got, got_p6 = _ball_values(probe, s, seed, family, monkeypatch)
        want, want_p6 = _ball_values(probe_oracle.blocked_probe, s, seed,
                                     family, monkeypatch)
        if got != want or not all(
                np.array_equal(a, b) for a, b in zip(got_p6, want_p6,
                                                     strict=True)):
            return False
    return True


@pytest.mark.parametrize("lam", lab.PROBE_LAMS)
def test_probe_equals_the_full_cylinder_gemm_bit_for_bit(lam, monkeypatch):
    # ball-trimmed row prefixes, radius-sorted columns and the mirrored
    # focusing field give the full-cylinder sums exactly: np.mean reads the
    # same |F|^6 in the same (x1, x2, x3) order, so both ratios and n_points
    # are equal, at even (lam 4, 16, 32, 64) and odd (lam 8) grids
    assert _equals_the_full_cylinder_gemm(lab.decoupling_probe, lam,
                                          monkeypatch)


def _mirror_without_reversing_the_columns():
    """decoupling_probe, its focusing mirror taken column for column."""
    source = textwrap.dedent(inspect.getsource(lab.decoupling_probe))
    mirror = "focusing[n_axis - 1 - hn::-1, ::-1]"
    assert source.count(mirror) == 1
    namespace = dict(vars(lab))
    exec(source.replace(mirror, "focusing[n_axis - 1 - hn::-1]"), namespace)
    return namespace["decoupling_probe"]


def test_a_mirror_without_the_column_reversal_fails_the_gemm_check(
        monkeypatch):
    # the mutant hands np.mean the ball's focusing values in another order;
    # being the same values, they move the ratio only by its rounding
    monkeypatch.setattr(lab, "decoupling_probe",
                        _mirror_without_reversing_the_columns())
    assert not _equals_the_full_cylinder_gemm(lab.decoupling_probe, 4.0,
                                              monkeypatch)


def _ball_count(ax):
    """Grid points with (x1^2 + x2^2) + x3^2 <= 1/4, summed as the probe.

    The rounded sum grows with x3^2, so for each (x1, x2) the x3 inside
    are a prefix of the sorted squares: its end is found by a search and
    stepped to where the rounded test turns.
    """
    sq = ax ** 2
    s12 = (sq[:, np.newaxis] + sq).ravel()
    q = np.sort(sq)
    c = np.searchsorted(q, 0.25 - s12, side="right")
    while True:
        up = (c < q.size) & (s12 + q[np.minimum(c, q.size - 1)] <= 0.25)
        down = (c > 0) & (s12 + q[c - 1] > 0.25)
        if not (up.any() or down.any()):
            return int(c.sum())
        c += up.astype(int) - down


def test_the_ball_count_is_the_full_grid_mask():
    for n_axis in (4, 5, 17, 24, 33):
        ax = probe_oracle.probe_grid(n_axis)
        sq = ax ** 2
        full = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
        assert _ball_count(ax) == np.count_nonzero(full <= 0.25)


def test_the_probe_grid_is_mirrored_and_keeps_the_old_ball():
    for n_axis in range(4, 401):
        ax = probe_oracle.probe_grid(n_axis)
        assert np.array_equal(ax[::-1], -ax), n_axis
        old = (np.arange(n_axis) + 0.5) / n_axis - 0.5
        assert _ball_count(ax) == _ball_count(old), n_axis


@pytest.mark.parametrize("lam", [4.0, 16.0, 64.0, 128.0, 256.0])
def test_probe_single_cap_is_exact_up_to_the_ceiling(lam):
    rep = lab.run_experiment("probe-single-cap", lam=lam)
    assert rep.results["max_dev_from_one"] == 0.0


def test_probe_single_cap_ratio_is_one():
    rep = lab.run_experiment("probe-single-cap")
    assert rep.lam == 64.0
    assert not rep.has_fail
    assert abs(rep.results["max_dev_from_one"]) <= 1e-13


def test_probe_determinism():
    s = scale.derive(16.0)
    a = lab.decoupling_probe(s, seed=3)
    b = lab.decoupling_probe(s, seed=3)
    assert a == b
    assert a.ratio_random > 1.0
    assert a.ratio_focusing > a.ratio_random


def _openblas_thread_count():
    """numpy's OpenBLAS thread-count getter, or None under another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    names = (f"{pre}get_num_threads{suf}" for pre, suf in lab._OPENBLAS_NAMES)
    return next((getattr(lib, n) for n in names if hasattr(lib, n)), None)


def test_probe_gemm_runs_on_one_blas_thread_and_restores_the_count():
    get = _openblas_thread_count()
    if get is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    before = get()
    with lab._one_blas_thread():
        assert get() == 1
    assert get() == before
    with pytest.raises(ZeroDivisionError):
        with lab._one_blas_thread():
            1 / 0
    assert get() == before


def test_one_blas_thread_leaves_the_probe_gemm_bit_for_bit():
    # threads split the GEMM's output, not its sums; at the probe's largest
    # lam-64 block, 72 rows by 32 columns, the split keeps whole micro-tiles
    rng = np.random.default_rng(5)
    left, right = (rng.normal(size=(m, 2048, 2)).view(complex)[..., 0]
                   for m in (72, 32))
    threaded = left @ right.T
    with lab._one_blas_thread():
        single = left @ right.T
    assert np.array_equal(threaded, single)


def test_greedy_coloring_floor_draws_a_conflict_edge():
    # at the declared floor every seed 0-199 at lam 16, 64 and 256 draws at
    # least one conflict edge (at 2 samples, 394 of these 600 runs did not)
    floor = lab.REGISTRY["greedy-coloring"].min_samples
    assert floor == 20
    fails = [(lam, seed) for lam in (16.0, 64.0, 256.0) for seed in range(200)
             if lab.run_experiment("greedy-coloring", lam, seed, floor).has_fail]
    assert fails == []


def test_greedy_coloring_scans_its_conflict_pairs_once(monkeypatch):
    # the colouring, its check and the degrees all read one pairs array
    scans = []
    real = caps.pairs_within

    def counting(points, radius):
        scans.append(len(points))
        return real(points, radius)

    monkeypatch.setattr(caps, "pairs_within", counting)
    lab.run_experiment("greedy-coloring")
    assert scans == [lab.REGISTRY["greedy-coloring"].default_samples]


_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None             # any scipy import now raises
import decolab
from decolab import lab
lab.run_experiment("cap-lattice", 64.0)
for name in ("greedy-coloring", "multiplicity", "phase-coverage", "l2-sum"):
    lab.run_experiment(name)
lab.run_experiment("l2-sum", 16.0)
print(sorted(m for m, mod in sys.modules.items()
             if m.split(".")[0] == "scipy" and mod is not None))
"""


def test_import_and_the_former_tree_users_load_no_scipy():
    # a fresh interpreter with scipy blocked: this suite's own imports
    # already hold scipy
    src = os.path.dirname(os.path.dirname(decolab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
