"""Bad input raises the package's typed ConfigError, still a ValueError."""
import json
import math
import os
import tempfile

import numpy as np
import pytest

from decolab import caps, cli, geometry, lab, ledger, phase, scale, shell
from decolab.errors import ConfigError, DecolabError

S64 = scale.derive(64.0)


def _load_config_of(doc):
    """``cli._load_config`` of a config file holding ``doc`` as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return cli._load_config(path)


SITES = {
    "phase-stack-shape": lambda: phase.check_shell(np.zeros((2, 5, 3)), S64),
    "phase-off-shell": lambda: phase.check_shell(np.zeros((1, 6, 3)), S64),
    "phase-linkage-shape": lambda: phase.single_linkage_sizes(
        np.zeros((2, 4)), 0.1),
    "phase-unknown-kind": lambda: phase.sample_sextuple(S64, 0, 1, "bogus"),
    "geometry-minor-shape": lambda: geometry.mixed_minor4(
        *(np.zeros(3) for _ in range(4))),
    "geometry-min-triple-shape": lambda: geometry.min_triple(np.ones((2, 5))),
    "geometry-broad3-values": lambda: geometry.broad3(
        np.ones((2, 5)), np.ones((2, 5, 3))),
    "geometry-broad3-normals": lambda: geometry.broad3(
        np.ones((2, 6)), np.ones((2, 5, 3))),
    "shell-flat-gradient": lambda: shell.normalize_grad_rms(
        shell.Poly4({(0, 0, 0, 0): 1.0})),
    "lab-no-row-table": lambda: lab.ExperimentReport(
        "bare", 64.0, 7, {}, {}, ()).csv_rows(),
    "lab-fit-two-points": lambda: lab.fit_slope([1.0, 2.0], [1.0, 2.0]),
    "lab-fit-nonpositive": lambda: lab.fit_slope([1.0, 2.0, 4.0],
                                                 [1.0, 0.0, 1.0]),
    "lab-fit-one-lam": lambda: lab.fit_slope([64.0, 64.0, 64.0],
                                             [1.0, 2.0, 4.0]),
    "cli-config-not-an-object": lambda: _load_config_of([64]),
    "cli-config-unknown-key": lambda: _load_config_of({"lam": 64}),
    "cli-config-seed-text": lambda: _load_config_of({"seed": "abc"}),
    "cli-config-seed-null": lambda: _load_config_of({"seed": None}),
    "cli-config-seed-bool": lambda: _load_config_of({"seed": True}),
    "cli-config-samples-float": lambda: _load_config_of({"samples": 2.7}),
    "cli-config-format-unknown": lambda: _load_config_of({"format": "xml"}),
    "cli-config-out-not-text": lambda: _load_config_of({"out": 1}),
    "lab-no-ladder-metric": lambda: lab.run_ladder("nested-ball"),
    "lab-samples-ceiling": lambda: lab.run_experiment(
        "geometry-residual", 64.0, samples=lab.MAX_SAMPLES + 1),
    "ledger-negative-counts": lambda: ledger.kernel_derivation(n_t=-1),
    "ledger-no-cascade-step": lambda: ledger.narrow_derivation(0),
    "caps-radii-descending": lambda: caps.pair_counts_within(
        caps.fibonacci_sphere(8), [1.0, 0.5]),
    "caps-radii-nan": lambda: caps.pair_counts_within(
        caps.fibonacci_sphere(8), [0.5, math.nan]),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_bad_input_raises_the_typed_config_error(site):
    with pytest.raises(DecolabError) as err:
        SITES[site]()
    assert isinstance(err.value, ConfigError)
    assert isinstance(err.value, ValueError)
