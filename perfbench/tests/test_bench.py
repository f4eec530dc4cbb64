"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, inputs,
repeatable counts, output checks, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import sys

import pytest

import passrun
import run
import spans
import workloads
from decolab import lab


def _tracer(rows):
    t = spans.Tracer()
    t.spans = [spans.Span(*row) for row in rows]
    return t


def test_self_time_of_nested_spans():
    t = _tracer([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("a", 7.0, 7.5, 0),
    ])
    assert spans.self_times(t.spans) == [5.5, 2.0, 1.0, 1.0, 0.5]
    # self times partition the root span: no second is counted twice
    assert sum(spans.self_times(t.spans)) == 10.0


def test_layer_metrics_sum_self_and_count_calls():
    t = _tracer([
        ("lab.exp.x", 0.0, 4.0, -1),
        ("rng.keyed_rng", 0.5, 1.0, 0),
        ("rng.keyed_rng", 2.0, 3.0, 0),
    ])
    t.counts["tubes.mc_volume.samples"] = 7
    m = spans.layer_metrics(t, ("lab.exp.x.s", "rng.keyed_rng.self_s",
                                "rng.keyed_rng.calls",
                                "tubes.mc_volume.samples",
                                "caps.min_separation.self_s"))
    assert m == {"lab.exp.x.s": 4.0, "rng.keyed_rng.self_s": 1.5,
                 "rng.keyed_rng.calls": 2, "tubes.mc_volume.samples": 7,
                 "caps.min_separation.self_s": 0.0}


def _bindings():
    return {(m.__name__, k): v for m in spans.decolab_modules()
            for k, v in vars(m).items()}


def test_instrument_rebinds_every_binding_and_restores_all():
    import decolab.caps
    import decolab.geometry
    import decolab.rng
    before = _bindings()
    keyed_rng = decolab.rng.keyed_rng
    angle_between = decolab.geometry.angle_between
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            for name in ("lab", "tubes", "phase", "shell", "rng"):
                mod = sys.modules[f"decolab.{name}"]
                assert mod.keyed_rng is not keyed_rng
                assert mod.keyed_rng.__wrapped__ is keyed_rng
            assert decolab.caps.angle_between is not angle_between
            assert decolab.geometry.angle_between is not angle_between
            raise RuntimeError("restore must survive an error")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_workload_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        a = workloads.operations(w, 11)
        assert a == workloads.operations(w, 11)
        b = workloads.operations(w, 12)
        assert [dataclasses.replace(op, seed=11) for op in b] == list(a)
        assert {op.seed for op in b} == {12}
    names = [op.name for op in workloads.operations("registry", 0)]
    assert names == list(lab.experiment_names()) and len(names) == 24
    assert len(workloads.operations("ladders", 0)) == 6


# small operations that reach every counted layer
_SMALL_OPS = (
    ("cap-lattice", 64.0, 500), ("l2-sum", 16.0, 1000),
    ("probe-curve", 8.0, 0), ("tube-volume", 64.0, 2000),
    ("multiplicity", 64.0, 2000), ("shell-ensemble", 64.0, 2000),
    ("select-four", 256.0, 5), ("phase-coverage", 256.0, 3),
    ("pair-overlap", 64.0, 2000),
)


def _traced_counts(seed):
    ops = [workloads.Op("exp", n, seed, lam, s)
           for n, lam, s in _SMALL_OPS]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        out = passrun.run_pass(ops, tracer)
    assert all(op["failing_units"] == 0 for op in out["ops"]), out["ops"]
    m = spans.layer_metrics(tracer, spans.metric_names())
    return {n: v for n, v in m.items() if n.endswith(run.COUNT_SUFFIXES)}


def test_count_metrics_repeat_exactly_on_one_seed():
    first = _traced_counts(5)
    assert first == _traced_counts(5)
    for name in ("lab.decoupling_probe.macs", "caps.build_lattice.points",
                 "caps.build_lattice.caps", "tubes.mc_pair_overlap.samples",
                 "tubes.mc_volume.samples", "tubes.multiplicity_counts.points",
                 "shell.band_fraction.samples", "rng.keyed_rng.calls",
                 "geometry.angle_between.calls", "phase.mu6.calls"):
        assert first[name] > 0, name


def _pass(digest, failing=0, error=None):
    return {"ops": [{"op": "x", "units": 3, "failing_units": failing,
                     "digests": {"x@64": digest}, "error": error}]}


def test_check_counts_digest_mismatch_and_fail_verdicts():
    attempted, failed, sound, notes, digests = run.check(
        [_pass("aa"), _pass("aa"), _pass("aa", failing=1)])
    assert (attempted, failed, sound) == (9, 1, True)
    assert digests == {"x@64": "aa"} and len(notes) == 1
    attempted, failed, sound, notes, _ = run.check(
        [_pass("aa"), _pass("bb"), _pass("aa", failing=3, error="boom")])
    assert (attempted, failed, sound) == (9, 6, False)
    assert len(notes) == 2


def test_benchmark_json_matches_what_the_benchmark_reports():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    # sextuples is run by hand, not gated: see the README's workloads
    assert [w["name"] for w in spec["workloads"]] == ["registry", "ladders"]
    assert run.WORKLOADS == workloads.WORKLOADS
    assert run.DEFAULT_SEED == lab.DEFAULT_SEED
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = [m["name"] for m in spec["per_layer"]]
    assert layer_names == [*spans.metric_names(), "trace.overhead_s",
                           "trace.layer_self_share"]
    for m in spec["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"])


def test_traced_metrics_flags_counts_that_move():
    passes = [
        {"traced": False, "wall_s": 2.0},
        {"traced": True, "wall_s": 3.0,
         "layers": {"a.f.self_s": 1.5, "a.f.calls": 5}},
        {"traced": False, "wall_s": 2.5},
        {"traced": True, "wall_s": 4.0,
         "layers": {"a.f.self_s": 2.0, "a.f.calls": 6}},
    ]
    notes = []
    values, counts_repeat = run.traced_metrics(passes, notes)
    assert not counts_repeat and "a.f.calls" in notes[0]
    assert values["a.f.calls"] == 5 and values["a.f.self_s"] == 1.75
    assert values["trace.overhead_s"] == 3.5 - 2.25
    assert values["trace.layer_self_share"] == 0.5
