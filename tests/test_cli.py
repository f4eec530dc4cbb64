import json
import warnings
from fractions import Fraction

import pytest

from decolab import caps, cli, lab, ledger, tubes
from decolab.errors import DecolabError
from decolab.rng import MCEstimate


def test_ledger_subcommand_passes(capsys):
    assert cli.main(["ledger"]) == 0
    out = capsys.readouterr().out
    assert "experiment: ledger-goldens" in out
    assert "[PASS] all_checkpoints_match  (21/21 rows match)" in out
    assert "FAIL" not in out


def test_ledger_text_lines_fit_a_terminal(capsys):
    assert cli.main(["ledger"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "scenario_totals.main.lam: -2557/576" in lines
    assert max(len(line) for line in lines) <= 120


def test_ledger_json_format(capsys):
    assert cli.main(["ledger", "--format", "json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)["reports"]
    assert doc["experiment"] == "ledger-goldens"
    assert doc["verdicts"][0]["status"] == "PASS"


def test_ledger_mismatch_exits_1_and_names_the_checkpoint(monkeypatch,
                                                           capsys):
    monkeypatch.setitem(ledger.GOLDEN, "narrow_log_2", (Fraction(1, 2), None))
    assert cli.main(["ledger"]) == 1
    (verdict,) = [line for line in capsys.readouterr().out.splitlines()
                  if "all_checkpoints_match" in line]
    assert verdict.startswith("[FAIL]")
    assert "20/21 rows match" in verdict
    assert "narrow_log_2" in verdict


def test_group_runs_and_exit_code(capsys):
    code = cli.main(["shell", "--lambda", "64", "--samples", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "anisotropic-roundtrip" in out
    assert "hyperplane-shell" in out
    assert "shell-ensemble" in out
    assert "FAIL" not in out


def test_json_output_structure(capsys):
    code = cli.main(["phase", "--lambda", "64", "--samples", "20",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = [r["experiment"] for r in doc["reports"]]
    assert names == ["phase-coverage", "paired-identities"]
    for r in doc["reports"]:
        assert r["wall_time_s"] is None
        assert r["lam"] == 64.0


def test_csv_output_has_expected_columns(capsys):
    code = cli.main(["phase", "--lambda", "64", "--samples", "10",
                     "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines()
                  if line.startswith("seed,"))
    assert header.split(",") == [
        "seed", "kind", "replicate", "mu6", "basket", "label", "witness",
        "rn_label", "cluster_sizes",
    ]


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["probe", "--lambda", "16", "--format", "json",
                     "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    names = [r["experiment"] for r in doc["reports"]]
    assert names == ["probe-single-cap", "probe-curve"]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_an_unwritable_out_is_a_usage_error_before_any_run(via, tmp_path,
                                                           monkeypatch,
                                                           capsys):
    def no_run(*args):
        raise AssertionError("an experiment ran")
    monkeypatch.setattr(lab, "run_experiment", no_run)
    monkeypatch.setattr(lab, "run_ladder", no_run)
    out = str(tmp_path / "missing" / "x.txt")
    if via == "flag":
        argv = ["ledger", "--out", out]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": out}))
        argv = ["ladder", "mixed-minor", "--config", str(cfg)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"decolab: cannot write {out}: ")
    assert "Traceback" not in captured.err


def test_multiple_lambdas_fan_out(capsys):
    code = cli.main(["geometry-audit", "--lambda", "64,128",
                     "--samples", "2000", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    lams = sorted({r["lam"] for r in doc["reports"]})
    assert lams == [64.0, 128.0]
    assert len(doc["reports"]) == 10


def test_ladder_subcommand(capsys):
    code = cli.main(["ladder", "geometry-residual",
                     "--lambda", "64,128,256", "--samples", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ladder:geometry-residual" in out
    assert "fitted_slope" in out


def test_unknown_ladder_experiment_is_usage_error(capsys):
    code = cli.main(["ladder", "not-an-experiment"])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_probe_beyond_its_guard_is_usage_error(monkeypatch, capsys):
    def no_lattice(scale):
        raise AssertionError("the lattice was built")
    monkeypatch.setattr(caps, "build_lattice", no_lattice)
    code = cli.main(["probe", "--lambda", "512"])
    assert code == 2
    assert "Nyquist" in capsys.readouterr().err
    # probe-single-cap brings its own family; probe-curve builds the lattice
    code = cli.main(["ladder", "probe-curve", "--lambda", "512,1024,2048"])
    assert code == 2
    assert "Nyquist" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cap-lattice", "probe-curve"])
@pytest.mark.parametrize("rungs, message", [
    ("2048,4096", ">= 3 rungs"),
    ("64,128,1", "must be >= 2"),
    ("64,128,nan", "must be >= 2"),
])
def test_ladder_rungs_are_checked_before_any_runs(name, rungs, message,
                                                  monkeypatch, capsys):
    def no_lattice(scale):
        raise AssertionError("the lattice was built")
    monkeypatch.setattr(caps, "build_lattice", no_lattice)
    code = cli.main(["ladder", name, "--lambda", rungs])
    assert code == 2
    assert message in capsys.readouterr().err


def test_a_ladder_of_one_repeated_rung_is_usage_error(capsys):
    # refused before the fit can divide by the spread of one distinct lam
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["ladder", "cap-lattice", "--lambda", "64,64,64"])
    assert code == 2
    assert "distinct lams" in capsys.readouterr().err


def test_group_below_the_smallest_lam_is_usage_error(capsys):
    code = cli.main(["caps", "--lambda", "1"])
    assert code == 2
    assert "must be >= 2" in capsys.readouterr().err


def test_bad_lambda_string_is_usage_error(capsys):
    code = cli.main(["caps", "--lambda", "sixty-four"])
    assert code == 2
    assert "bad --lambda" in capsys.readouterr().err


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 64, "samples": 5000,
                               "format": "json"}))
    code = cli.main(["shell", "--config", str(cfg), "--samples", "4000"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["lam"] == 64.0
    # the flag overrides the config value
    assert doc["reports"][0]["params"]["samples"] == 4000


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 64, "bogus": 1}))
    code = cli.main(["shell", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"seed": "abc"}, {"seed": None},
                                 {"format": "xml"}, {"samples": 2.7}])
def test_a_bad_config_value_is_a_usage_error(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["shell", "--lambda", "64", "--config", str(cfg)])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and "bad config: invalid" in out.err


def test_config_missing_file_is_usage_error(tmp_path, capsys):
    code = cli.main(["shell", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_usage_error_without_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("group,samples", [
    ("phase", "0"), ("phase", "-5"),
    ("shell", "0"), ("shell", "-5"),
    ("geometry-audit", "0"), ("geometry-audit", "-5"),
    ("caps", "0"), ("caps", "-5"),
    ("probe", "-5"),
    ("caps", "1"), ("caps", "19"), ("tubes", "1"), ("tubes", "999"),
])
def test_samples_below_the_evidence_floor_are_usage_errors(group, samples,
                                                           capsys):
    code = cli.main([group, "--lambda", "16", "--samples", samples])
    assert code == 2
    assert "needs samples >=" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["geometry-audit", "--lambda", "64"],
                                  ["ladder", "bilipschitz"]],
                         ids=["group", "ladder"])
def test_samples_past_the_memory_ceiling_are_usage_errors(argv, monkeypatch,
                                                          capsys):
    # 200M directions would be a 4.5 GiB draw; nothing may be drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the samples check")
    for name in ("keyed_rng", "unit_vectors", "jittered_stack"):
        monkeypatch.setattr(lab, name, no_draw)
    monkeypatch.setattr(lab.Run, "rng", no_draw)
    assert cli.main(argv + ["--samples", "200000000"]) == 2
    err = capsys.readouterr().err
    assert f"samples <= {lab.MAX_SAMPLES}" in err and "got 200000000" in err


def test_the_samples_ceiling_admits_itself():
    exp = lab.REGISTRY["bilipschitz"]
    assert lab._checked_samples(exp, lab.MAX_SAMPLES) == lab.MAX_SAMPLES
    with pytest.raises(DecolabError, match="samples <="):
        lab._checked_samples(exp, lab.MAX_SAMPLES + 1)


@pytest.mark.parametrize("name", [
    "tube-volume", "nested-ball", "pair-overlap", "multiplicity",
])
def test_tubes_floor_is_checked_before_any_lattice(name, monkeypatch):
    def no_lattice(*args):
        raise AssertionError("lattice built before the samples check")
    monkeypatch.setattr(caps, "build_lattice", no_lattice)
    with pytest.raises(DecolabError, match=f"{name} needs samples >= "
                       f"{tubes.MIN_SAMPLES}"):
        lab.run_experiment(name, 64.0, samples=tubes.MIN_SAMPLES - 1)


def test_experiments_that_draw_nothing_record_zero_samples(capsys):
    code = cli.main(["probe", "--lambda", "16", "--samples", "5",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["params"]["samples"] for r in doc["reports"]] == [0, 0]
    assert lab.run_experiment("l2-sum", 16.0, samples=5).params == {
        "samples": 0}


def test_lattice_beyond_its_memory_guard_is_usage_error(capsys):
    code = cli.main(["caps", "--lambda", "262144"])
    assert code == 2
    assert "spiral" in capsys.readouterr().err


def _strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, as strict JSON
    parsers do."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name, lam", [
    *((name, None) for name in lab.REGISTRY), ("hyperplane-shell", 1e60),
], ids=[*lab.REGISTRY, "hyperplane-shell-lam-1e60"])
def test_json_reports_at_the_sample_floor_are_strict_json(name, lam):
    # at the floor a sampled estimate can have zero stderr, and no z
    for seed in range(4):
        report = lab.run_experiment(name, lam, seed,
                                    lab.REGISTRY[name].min_samples)
        _strict_json(report.canonical_json())
        _strict_json(cli._render([report], "json"))


def test_the_audit_gives_a_null_z_at_zero_stderr_and_a_two_sided_verdict(
        monkeypatch):
    # zero stderr: no z, whether or not the estimate is on target
    for estimate in (0.125, 0.0):
        assert lab._audit(estimate, 0.0, 0.125) == (
            None, "z undefined at zero stderr")
    # the z is signed, so the audit reads a gap on either side
    for sign in (1.0, -1.0):
        assert lab._audit(sign * 0.5, 0.25, 0.0) == (
            sign * 2.0, f"z = {sign * 2.0:.3f}")
        assert lab._audit(sign * 1.0, 0.25, 0.0) == (
            sign * 4.0, f"z = {sign * 4.0:.3f}")
    # an audit of zero hits has zero stderr: the report says so in strict
    # JSON, and the exact verdicts do not move
    monkeypatch.setattr(tubes, "mc_pair_overlap",
                        lambda *args: MCEstimate(0.0, 0.0, args[2]))
    rep = lab.run_experiment("pair-overlap", 64.0, samples=tubes.MIN_SAMPLES)
    doc = _strict_json(cli._render([rep], "json"))["reports"][0]
    assert [r["z"] for r in doc["results"]["rows"]] == [None] * len(
        doc["results"]["rows"])
    assert [v["status"] for v in doc["verdicts"]] == [
        lab.PASS, lab.OBSERVATIONAL, lab.PASS]


def test_shell_json_at_one_sample_is_strict_json(capsys):
    # one midpoint is below hyperplane-shell's floor: a usage error that
    # prints no partial report
    code = cli.main(["shell", "--lambda", "64", "--samples", "1",
                     "--format", "json"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "samples >= 5" in err
    assert cli.main(["shell", "--lambda", "64", "--samples", "4"]) == 2
    capsys.readouterr()
    # at the floor the report is strict JSON, and its rows carry no z
    code = cli.main(["shell", "--lambda", "64", "--samples", "5",
                     "--format", "json"])
    assert code == 0
    doc = _strict_json(capsys.readouterr().out)
    rows = [r for rep in doc["reports"] if rep["experiment"] ==
            "hyperplane-shell" for r in rep["results"]["rows"]]
    assert len(rows) == 3 and not any("z" in r for r in rows)
