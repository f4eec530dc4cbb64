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


def test_a_registry_pass_has_four_statistical_verdicts():
    # one report per experiment, at its golden's inputs; these are the
    # verdicts that can FAIL by chance, which a false-FAIL budget counts
    docs = {}
    for path in _golden_files():
        doc = json.loads(path.read_text())
        if not doc["experiment"].startswith(LADDER_PREFIX):
            docs[doc["experiment"]] = doc
    found = [(name, v.name)
             for name, doc in sorted(docs.items())
             for v in lab.run_experiment(name, doc["lam"], doc["seed"],
                                         doc["params"]["samples"]).verdicts
             if v.statistical]
    assert found == [
        ("boundary-layer", "matches_exact_fraction"),
        ("hyperplane-shell", "matches_exact_fraction"),
        ("nested-ball", "matches_closed_form"),
        ("pair-overlap", "estimates_below_bound"),
    ]
