"""Committed canonical reports: every experiment, byte for byte.

Each file under tests/golden/ is the canonical JSON of one run at small
sample counts; the run's inputs (lam, seed, samples, ladder rungs) are read
back from the file itself.  A refactor that changes any byte of any report
fails here, naming the experiment.
"""
import json
from pathlib import Path

import pytest

from decolab import lab

GOLDEN = Path(__file__).parent / "golden"
LADDER_PREFIX = "ladder:"


def _golden_files():
    return sorted(GOLDEN.glob("*.json"))


def test_every_experiment_has_a_golden():
    names = {json.loads(p.read_text())["experiment"] for p in _golden_files()}
    experiments = {n for n in names if not n.startswith(LADDER_PREFIX)}
    assert experiments == set(lab.experiment_names())


@pytest.mark.parametrize("path", _golden_files(), ids=lambda p: p.stem)
def test_golden_report(path):
    expected = path.read_text()
    doc = json.loads(expected)
    name = doc["experiment"]
    samples = doc["params"]["samples"]
    if name.startswith(LADDER_PREFIX):
        rep = lab.run_ladder(name[len(LADDER_PREFIX):],
                             lams=tuple(doc["params"]["lams"]),
                             seed=doc["seed"], samples=samples)
    else:
        rep = lab.run_experiment(name, doc["lam"], doc["seed"], samples)
    assert rep.canonical_json() == expected


#: the experiments whose verdicts were Monte Carlo z-tests; as z-tests,
#: hyperplane-shell FAILed at seeds 11, 13 and 29, and nested-ball at 44
ONCE_STATISTICAL = ("boundary-layer", "hyperplane-shell", "nested-ball",
                    "pair-overlap")


def test_the_once_statistical_verdicts_do_not_move_with_the_seed():
    # each PASS/FAIL verdict is decided on an exact or deterministic value,
    # so seeds 0-99 give one status per verdict, and none is FAIL
    for name in ONCE_STATISTICAL:
        runs = {seed: [(v.name, v.status)
                       for v in lab.run_experiment(name, seed=seed).verdicts]
                for seed in range(100)}
        first = runs[0]
        assert all(statuses == first for statuses in runs.values()), name
        assert lab.FAIL not in {status for _, status in first}, name
        assert all(runs[seed] == first for seed in (11, 13, 29, 44)), name
