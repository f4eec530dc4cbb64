import csv
import io
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from decolab import cli, ledger


def test_every_checkpoint_matches_its_golden_value():
    rows = ledger.checkpoint_table()
    assert len(rows) == len(ledger.GOLDEN)
    for row in rows:
        assert row.match, f"{row.name}: derived ({row.derived_lam}, " \
                          f"{row.derived_d}) != golden ({row.golden_lam}, " \
                          f"{row.golden_d})"


def test_all_exponents_are_exact_rationals():
    for sc in ledger.scenarios().values():
        for b in sc.blocks:
            assert type(b.lam_exp) is Fraction
            assert type(b.d_exp) is Fraction
    for glam, gd in ledger.GOLDEN.values():
        assert type(glam) is Fraction
        assert gd is None or type(gd) is Fraction
    for v in ledger.UNUSED_EXPONENTS.values():
        assert type(v) is Fraction


def test_sum_is_block_order_invariant():
    sc = ledger.scenarios()["main"]
    base = ledger.sum_exponents(sc)
    blocks = list(sc.blocks)
    rng = random.Random(0)
    for _ in range(10):
        rng.shuffle(blocks)
        shuffled = replace(sc, blocks=tuple(blocks))
        assert ledger.sum_exponents(shuffled) == base


def test_main_balance_value():
    lam, d = ledger.sum_exponents(ledger.scenarios()["main"])
    assert lam == Fraction(-2557, 576)
    assert d == Fraction(-3)
    assert lam < 0 and d < 0


def test_scenario_rejects_two_exclusive_regimes():
    with pytest.raises(ledger.ScenarioError):
        ledger.Scenario(
            "bad",
            (ledger.BROAD, ledger.ROBUST_KAKEYA, ledger.TUBE_PACKING_OPTIMAL),
            driving="robust_kakeya",
        )


def test_scenario_rejects_missing_exclusive_regime():
    with pytest.raises(ledger.ScenarioError):
        ledger.Scenario("bad", (ledger.BROAD, ledger.KERNEL),
                        driving="robust_kakeya")


def test_scenario_rejects_always_as_driving():
    with pytest.raises(ledger.ScenarioError):
        ledger.Scenario("bad", (ledger.BROAD, ledger.ROBUST_KAKEYA),
                        driving="always")


def test_scenario_rejects_narrow_driving_with_robust_block():
    with pytest.raises(ledger.ScenarioError):
        ledger.Scenario("bad", (ledger.NARROW, ledger.ROBUST_KAKEYA),
                        driving="narrow")


def test_scenario_rejects_duplicate_attribution():
    dup = replace(ledger.KERNEL, attribution=ledger.BROAD.attribution)
    with pytest.raises(ledger.ScenarioError):
        ledger.Scenario("bad", (ledger.BROAD, dup, ledger.ROBUST_KAKEYA),
                        driving="robust_kakeya")


def test_block_validation():
    with pytest.raises(ledger.ScenarioError):
        ledger.Block("b", Fraction(1), Fraction(0), "sideways", "x")
    with pytest.raises(TypeError):
        ledger.Block("b", 0.5, Fraction(0), "always", "x")
    with pytest.raises(ledger.ScenarioError):
        ledger.Block("b", Fraction(1), Fraction(0), "always", "")


def test_kernel_derivation_composition():
    k = ledger.kernel_derivation(6, 6)
    assert k.lam_exp == Fraction(-9, 2)
    assert k.d_exp == Fraction(-3)
    assert k.schur_raw_lam == Fraction(-2)
    assert k.ttstar_lam == Fraction(-5, 2)
    assert k.lam_exp == k.schur_raw_lam + k.ttstar_lam
    # each transverse integration costs (1/3, 1/2)
    k5 = ledger.kernel_derivation(6, 5)
    assert k.lam_exp - k5.lam_exp == Fraction(-1, 3)
    assert k.d_exp - k5.d_exp == Fraction(-1, 2)
    with pytest.raises(ValueError):
        ledger.kernel_derivation(-1, 0)


def test_narrow_cascade_values_and_guard():
    n = ledger.narrow_derivation(2)
    assert n.local_exp == Fraction(-15, 16)
    assert n.global_exp == Fraction(-5, 64)
    assert n.global_exp == n.local_exp / 12
    assert all(g > 0 for g in n.angular_logs)
    with pytest.raises(ValueError):
        ledger.narrow_derivation(0)
    # the angular-window logs stay positive for every cascade length,
    # since (7/8)**j < 15/16 for j >= 1
    long = ledger.narrow_derivation(30)
    assert all(g > 0 for g in long.angular_logs)


def test_damping_arithmetic():
    d = ledger.damping_arithmetic()
    assert d.damped == (Fraction(-5, 6), Fraction(-1, 2))
    assert d.six_hits == (Fraction(-5), Fraction(-3))
    assert d.damped[0] == d.base[0] + d.window_hit


def test_unused_exponent_is_not_in_any_scenario():
    spare = set(ledger.UNUSED_EXPONENTS)
    for sc in ledger.scenarios().values():
        for b in sc.blocks:
            assert b.name not in spare


# the ledger renders through `decolab ledger`, as the ledger-goldens report

def test_render_text(capsys):
    assert cli.main(["ledger"]) == 0
    text = capsys.readouterr().out
    assert "[PASS] all_checkpoints_match" in text
    assert "FAIL" not in text
    assert "scenario_totals.main.driving: robust_kakeya" in text
    assert f"epsilon_policy: {ledger.EPSILON_POLICY}" in text


def test_render_json(capsys):
    assert cli.main(["ledger", "--format", "json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)["reports"]
    assert [(v["name"], v["status"]) for v in doc["verdicts"]] == [
        ("all_checkpoints_match", "PASS")]
    res = doc["results"]
    totals = res["scenario_totals"]
    assert set(totals) == set(ledger.scenarios())
    for name, sc in ledger.scenarios().items():
        assert [b["name"] for b in totals[name]["blocks"]] == [
            b.name for b in sc.blocks]
    assert totals["main"]["lam"] == "-2557/576"
    assert totals["main"]["effective_lam"] == str(
        ledger.GOLDEN["effective_main"][0])
    assert len(res["rows"]) == len(ledger.GOLDEN)
    assert all(r["match"] for r in res["rows"])
    assert res["n_matching"] == len(ledger.GOLDEN)
    assert res["unused_exponents"] == {
        k: str(v) for k, v in ledger.UNUSED_EXPONENTS.items()}
    assert res["epsilon_policy"] == ledger.EPSILON_POLICY
    assert res["kernel_derivation"]["schur_raw_lam"] == "-2"
    assert res["narrow_derivation"]["global_exp"] == "-5/64"


def test_render_csv(capsys):
    assert cli.main(["ledger", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# ledger-goldens"
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    assert list(rows[0]) == ["name", "derived_lam", "derived_d",
                             "golden_lam", "golden_d", "match"]
    assert [r["name"] for r in rows] == list(ledger.GOLDEN)
    assert all(r["match"] == "True" for r in rows)


def test_render_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ledger", "--format", "yaml"])
    assert exc.value.code == 2
