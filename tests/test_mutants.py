"""Each PASS/FAIL verdict of a registry pass can FAIL.

Every case applies one plausible mutant of a package kernel or constant
with ``monkeypatch`` (a dropped term, a sign, an off-by-one, a wrong
constant or a skipped row) and checks that its verdict PASSes unmutated
and FAILs mutated, at the experiment's defaults.  A source mutant is the
kernel's own source with one fragment replaced, compiled in the kernel's
module and bound wherever the package binds the kernel, so nothing in the
package carries a hook for it.  The meta-test holds the cases to the
verdicts of one registry pass: a PASS/FAIL verdict needs a case, and a case
needs its verdict.
"""
import __future__

import functools
import inspect
import sys

import numpy as np
import pytest

from decolab import (caps, geometry, lab, ledger, overlap, phase, scale,
                     shell, tubes)


def _source(kernel, old, new):
    """The mutant of ``kernel`` whose source has ``old``, found once, as
    ``new``."""
    def mutate(monkeypatch):
        text = inspect.getsource(kernel)
        assert text.count(old) == 1, (kernel.__qualname__, old)
        module = sys.modules[kernel.__module__]
        scope = {}
        exec(compile(text.replace(old, new), module.__file__, "exec",
                     flags=__future__.annotations.compiler_flag,
                     dont_inherit=True), vars(module), scope)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "decolab":
                for attr, value in list(vars(mod).items()):
                    if value is kernel:
                        monkeypatch.setattr(mod, attr, scope[kernel.__name__])
    return mutate


def _const(module, name, value):
    return lambda monkeypatch: monkeypatch.setattr(module, name, value)


def _double_beta(monkeypatch):
    membership = shell.band_membership
    monkeypatch.setattr(shell, "band_membership",
                        lambda poly, pts, beta: membership(poly, pts,
                                                           2.0 * beta))


def _covers_without_the_cell_ball(monkeypatch):
    def covers(tube, t, x, r_x):
        s = tube.scale
        r_ax = tubes.norm(x - 2.0 * t[..., np.newaxis] * tube.xi)
        return (r_ax <= s.rho) & (np.abs(t) <= s.t_half)
    monkeypatch.setattr(tubes, "_covers", covers)


def _profile_doubled(monkeypatch):
    profile = overlap.overlap_profile
    monkeypatch.setattr(overlap, "overlap_profile",
                        lambda delta, truncated=False:
                        2.0 * profile(delta, truncated))


def _core_grows_the_cell(monkeypatch):
    # the quadrature's Jacobian over [r0, 1/2] with its sign flipped, and
    # cell_volume's cache emptied, so that tube-volume reads the mutant
    _source(overlap.overlap_profile, "0.5 * (0.5 - r0) * total",
            "0.5 * (0.5 + r0) * total")(monkeypatch)
    monkeypatch.setattr(overlap, "cell_volume",
                        functools.cache(overlap.cell_volume.__wrapped__))


_ONE_OVER_LAM = _source(geometry.defect_minor, "(2.0 * lam * q",
                        "(lam * q")

MUTANTS = [
    ("scale-table", "alpha_closed_form",
     _source(scale.derive, "c0 * r * math.sqrt(D)", "c0 * r * D")),
    ("scale-table", "x_half_is_half_rho",
     _source(scale.derive, "x_half = 0.5 * rho", "x_half = 0.5 * r")),
    ("scale-table", "cell_height",
     _source(scale.derive, "t_half = 0.5 * lam", "t_half = lam")),
    ("scale-table", "d_twelfth_power",
     _source(scale.derive, "lam ** (1.0 / 12.0)", "lam ** (1.0 / 11.0)")),
    ("ledger-goldens", "all_checkpoints_match",
     _source(ledger.sum_exponents, "b.lam_exp for b in scenario.blocks)",
             "b.lam_exp for b in scenario.blocks[1:])")),
    ("geometry-residual", "matches_closed_form",
     _source(geometry.normal, "np.sqrt(1.0 + 4.0 * s2)",
             "np.sqrt(4.0 * s2)")),
    ("bilipschitz", "sampled_ratios_match_profile",
     _source(geometry.normal, "-2.0 * xi * scale", "-xi * scale")),
    ("gram-identity", "cosine_form_equals_det",
     _source(geometry.gram_det3, "+ 2.0 * cab", "- 2.0 * cab")),
    ("broad3-identity", "min_triple_leq_geometric_mean",
     _source(geometry.min_triple, "np.min(v[:, i]", "np.max(v[:, i]")),
    ("mixed-minor", "hadamard_inequality",
     _source(geometry.mixed_minor4, "- term(1, 3, 0, 2)",
             "+ term(1, 3, 0, 2)")),
    ("mixed-minor", "kernel_matches_closed_form", _ONE_OVER_LAM),
    ("cap-lattice", "pairwise_separated",
     _source(caps.min_separation, "2.0 * math.asin(", "math.asin(")),
    ("cap-lattice", "covering_within_2r",
     _const(caps, "_DENSITY_FACTOR", 1.0)),
    ("cap-lattice", "count_in_window", _const(caps, "_DENSITY_FACTOR", 0.5)),
    ("annulus-partition", "rings_partition_family",
     _source(caps.ring_histogram, "np.bincount(rings)",
             "np.bincount(rings[1:])")),
    ("greedy-coloring", "proper_coloring",
     _source(caps.greedy_color, "in pairs.tolist():",
             "in pairs.tolist()[1:]:")),
    ("greedy-coloring", "nontrivial_graph",
     _source(caps.conflict_pairs, "chord(family.scale.alpha))",
             "chord(family.scale.alpha) ** 2)")),
    ("select-four", "selected_subsets_separated",
     _source(caps.select_separated, ".all(axis=2)", ".any(axis=2)")),
    ("select-four", "generic_always_selectable",
     _source(caps.select_separated, "(ang >= alpha)", "(ang <= alpha)")),
    ("select-four", "five_cluster_blocks_selection",
     _source(phase.sample_sextuple, "5, 0.2 * scale.alpha",
             "5, 2.0 * scale.alpha")),
    ("tube-volume", "truncation_shrinks", _core_grows_the_cell),
    ("nested-ball", "matches_closed_form", _covers_without_the_cell_ball),
    ("boundary-layer", "matches_exact_fraction",
     _const(tubes, "BOUNDARY_LAYER_HALF_HEIGHT", 1.0 / 8.0)),
    ("pair-overlap", "exact_within_bound", _profile_doubled),
    ("pair-overlap", "branch_continuity",
     _source(tubes.pair_overlap_bound, "scale.rho ** 3 * m",
             "scale.rho ** 2 * m")),
    ("l2-sum", "total_dominates_diagonal",
     _source(tubes.l2_sum, "2.0 * float(np.sum(band_sums))",
             "-2.0 * float(np.sum(band_sums))")),
    ("multiplicity", "center_multiplicity_full",
     _source(tubes.multiplicity_counts, "xis[lo:lo + COUNT_CHUNK]",
             "xis[lo + 1:lo + COUNT_CHUNK]")),
    ("phase-coverage", "paired_draws_exact",
     _source(phase._block_fsum, "-cols[:, 3:]", "cols[:, 3:]")),
    ("phase-coverage", "five_cluster_is_narrow",
     _source(phase.rn_classify, "clusters[:, 0] >= 5", "clusters[:, 0] > 5")),
    ("phase-coverage", "dense_family_is_robust",
     _source(phase.rn_classify, "RN_C_STAR * scale.D",
             "RN_C_STAR * scale.lam")),
    ("paired-identities", "paired_sums_vanish",
     _source(phase._block_fsum, "[cols[:, :3], -cols[:, 3:]]",
             "[cols[:, :2], -cols[:, 3:]]")),
    ("paired-identities", "mu6_permutation_invariant",
     _source(phase._block_fsum, "map(math.fsum,", "map(sum,")),
    ("anisotropic-roundtrip", "roundtrip_identity",
     _source(shell.anisotropic_inverse, "out[..., 1:] /=",
             "out[..., 2:] /=")),
    ("anisotropic-roundtrip", "jacobian_consistent",
     _source(shell.jacobian, "scale.lam ** 3", "scale.lam ** 4")),
    ("hyperplane-shell", "matches_exact_fraction", _double_beta),
    ("probe-single-cap", "single_cap_ratio_is_one",
     _source(lab.decoupling_probe, "field.real ** 2 + field.imag ** 2",
             "field.real ** 2")),
]


def _case_ids():
    # an experiment's first case goes by the experiment's name alone
    seen = set()
    for name, verdict, _ in MUTANTS:
        yield name if name not in seen else f"{name}-{verdict}"
        seen.add(name)


@pytest.fixture(scope="module")
def registry():
    """One registry pass at the defaults, seed 7, shared by every case."""
    return {name: lab.run_experiment(name) for name in lab.experiment_names()}


def _status(report, verdict):
    return {v.name: v.status for v in report.verdicts}[verdict]


def test_every_pass_fail_verdict_has_one_case(registry):
    cases = [(name, verdict) for name, verdict, _ in MUTANTS]
    verdicts = {(name, v.name) for name, rep in registry.items()
                for v in rep.verdicts if v.status != lab.OBSERVATIONAL}
    assert len(set(cases)) == len(cases)
    assert set(cases) == verdicts


@pytest.mark.parametrize("name,verdict,mutate", MUTANTS, ids=list(_case_ids()))
def test_a_mutant_fails_the_verdict(registry, name, verdict, mutate,
                                    monkeypatch):
    assert _status(registry[name], verdict) == lab.PASS
    mutate(monkeypatch)
    assert _status(lab.run_experiment(name), verdict) == lab.FAIL


@pytest.mark.parametrize("lam", [4096.0, 8192.0, 16384.0])
def test_the_one_over_lam_minor_fails_past_the_default_lam(lam, monkeypatch):
    # the kernel audit's bound weighs the time row against its own
    # cofactors, so it stays tighter than the closed form up to lam 16384
    verdict = "kernel_matches_closed_form"
    assert _status(lab.run_experiment("mixed-minor", lam), verdict) == lab.PASS
    _ONE_OVER_LAM(monkeypatch)
    assert _status(lab.run_experiment("mixed-minor", lam), verdict) == lab.FAIL
