"""The blocked sampled experiments equal their whole-array versions.

Each runs at BLOCK_ROWS - 1, BLOCK_ROWS + 1 and 3 BLOCK_ROWS + 7 samples,
so a last block is short, one row long, or one of several.
"""
import pytest

import sampled_oracle
from decolab import lab, scale, shell
from decolab.geometry import BLOCK_ROWS

SAMPLES = [BLOCK_ROWS - 1, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7]

BODIES = {
    "geometry-residual": sampled_oracle.geometry_residual,
    "bilipschitz": sampled_oracle.bilipschitz,
    "gram-identity": sampled_oracle.gram_identity,
    "broad3-identity": sampled_oracle.broad3_identity,
    "mixed-minor": sampled_oracle.mixed_minor,
}


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("name", sorted(BODIES))
def test_a_geometry_audit_body_equals_its_whole_array_version(name, samples):
    lam = 1024.0
    rep = lab.run_experiment(name, lam, seed=5, samples=samples)
    results, checks = BODIES[name](lab.Run(name, lam, 5, samples,
                                           scale.derive(lam)))
    assert rep.results == results
    passed = {v.name: v.status == lab.PASS for v in rep.verdicts}
    assert {k: passed[k] for k in checks} == checks


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("degree", [1, 2])
def test_a_band_fraction_equals_its_whole_array_version(samples, degree):
    s = scale.derive(4096.0)
    poly = (shell.hyperplane_poly(0.3) if degree == 1
            else shell.random_poly(s, 2, seed=5))
    assert (shell.band_fraction(s, poly, samples, seed=5, tag="blocks")
            == sampled_oracle.band_fraction(s, poly, samples, seed=5,
                                            tag="blocks"))
