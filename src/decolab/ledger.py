"""Exact exponent ledger for the rank-6 decoupling balance.

Every gain or loss in the audited estimate is a power of the frequency scale
lam and of the degree budget D = lam**(1/12).  This module keeps that
bookkeeping as exact rationals: each contribution is a Block carrying a
(lambda-exponent, D-exponent) pair, blocks are assembled into Scenarios, and
scenario totals must reproduce frozen golden values to zero tolerance.

No floating point is allowed anywhere in this module; tests enforce that at
the token level.  The epsilon-free character of the estimate is part of the
contract: there is no epsilon field to add to an exponent, only metadata
noting that constants stay uniform.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, ScenarioError
from .scale import effective_lambda_exponent

REGIMES = ("always", "robust_kakeya", "tube_packing", "narrow")

#: recorded but deliberately never summed into any scenario
UNUSED_EXPONENTS: dict[str, Fraction] = {
    # spare interpolation gain on the product of the six local factors
    "sixth_power_interpolation_tail": Fraction(1, 18),
}

EPSILON_POLICY = (
    "no epsilon is ever added to an exponent; constants stay uniform in lam"
)


@dataclass(frozen=True)
class Block:
    """One additive contribution to the exponent balance.

    attribution names the mechanism that owns the gain; a scenario refuses
    two blocks with the same attribution, which makes double counting a
    construction error instead of a silent arithmetic one.
    """

    name: str
    lam_exp: Fraction
    d_exp: Fraction
    regime: str = "always"
    attribution: str = ""

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ScenarioError(f"unknown regime tag {self.regime!r}")
        if not isinstance(self.lam_exp, Fraction) or not isinstance(self.d_exp, Fraction):
            raise TypeError("block exponents must be Fraction")
        if not self.attribution:
            raise ScenarioError(f"block {self.name!r} needs an attribution")


@dataclass(frozen=True)
class Scenario:
    """A closed set of blocks whose exponents sum to one quoted balance.

    Exactly one of the regimes robust_kakeya / tube_packing may be active;
    `driving` is the single regime credited with the final shape of the
    bound, so "narrow and robust_kakeya both driving" cannot even be stated.
    """

    name: str
    blocks: tuple[Block, ...]
    driving: str

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        regimes = {b.regime for b in self.blocks}
        exclusive = regimes & {"robust_kakeya", "tube_packing"}
        if len(exclusive) != 1:
            raise ScenarioError(
                f"scenario {self.name!r} must hold exactly one of "
                f"robust_kakeya/tube_packing, found {sorted(exclusive)}"
            )
        if self.driving not in REGIMES or self.driving == "always":
            raise ScenarioError(f"bad driving regime {self.driving!r}")
        if self.driving == "narrow" and "robust_kakeya" in regimes:
            raise ScenarioError(
                "narrow cannot drive while a robust_kakeya block is active"
            )
        attributions = [b.attribution for b in self.blocks]
        if len(set(attributions)) != len(attributions):
            raise ScenarioError(
                f"scenario {self.name!r} double-counts a mechanism"
            )


def sum_exponents(scenario: Scenario) -> tuple[Fraction, Fraction]:
    """Exact (lambda, D) exponent totals; order of blocks is irrelevant."""
    scenario.validate()
    lam = sum((b.lam_exp for b in scenario.blocks), Fraction(0))
    d = sum((b.d_exp for b in scenario.blocks), Fraction(0))
    return lam, d


# ---------------------------------------------------------------------------
# the blocks of the audited balance
# ---------------------------------------------------------------------------

def _F(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)


BROAD = Block(
    "broad_trilinear_gain", _F(5, 36), _F(0), "always",
    attribution="broad three-wave floor; the cap-count factor D**(3/2) is "
    "owned by the robust_kakeya row, not re-counted here",
)
KERNEL = Block(
    "kernel_schur_bound", _F(-9, 2), _F(-3), "always",
    attribution="oscillatory kernel decay after 6+6 partial integrations",
)
ROBUST_KAKEYA = Block(
    "robust_kakeya_gain", _F(1, 12), _F(1), "robust_kakeya",
    attribution="multiplicity floor D on the dense-direction regime",
)
SHELL = Block(
    "shell_correction", _F(-1, 12), _F(-1), "always",
    attribution="thin algebraic shell carved out of the cell",
)
NARROW = Block(
    "narrow_cascade", _F(-5, 64), _F(0), "narrow",
    attribution="two-step radius cascade, global share of the local gain",
)
TUBE_PACKING_OPTIMAL = Block(
    "tube_packing_gain", _F(-7, 6), _F(1, 4), "tube_packing",
    attribution="L2 norm of the tube overlap sum, optimal exponent",
)
TUBE_PACKING_CONSERVATIVE = Block(
    "tube_packing_gain_conservative", _F(-1, 2), _F(1, 4), "tube_packing",
    attribution="L2 norm of the tube overlap sum, conservative exponent",
)


def scenarios() -> dict[str, Scenario]:
    """The four quoted balances, rebuilt from blocks on every call."""
    return {
        "main": Scenario(
            "main",
            (BROAD, KERNEL, ROBUST_KAKEYA, SHELL, NARROW),
            driving="robust_kakeya",
        ),
        "tube_packing_optimal": Scenario(
            "tube_packing_optimal",
            (BROAD, KERNEL, TUBE_PACKING_OPTIMAL, SHELL, NARROW),
            driving="tube_packing",
        ),
        "tube_packing_conservative": Scenario(
            "tube_packing_conservative",
            (BROAD, KERNEL, TUBE_PACKING_CONSERVATIVE, SHELL, NARROW),
            driving="tube_packing",
        ),
        "shortened": Scenario(
            "shortened",
            (BROAD, KERNEL, TUBE_PACKING_CONSERVATIVE, NARROW),
            driving="tube_packing",
        ),
    }


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

#: lambda-exponent of the composite frequency step lam * alpha (c0 aside);
#: also reachable as effective_lambda_exponent(1/3, 1/2)
LAMBDA_ALPHA_EFFECTIVE = _F(1, 3) + _F(1, 2) * _F(1, 12)

TIME_IBP = (_F(1, 2), _F(0))          # gain per integration by parts in t
TRANSVERSE_IBP = (_F(-1, 3), _F(-1, 2))  # per integration by parts in x'
JACOBIAN = (_F(-3), _F(0))            # physical-cell volume factor
# TT* refinement: one more partial integration in each time-like variable
# (-2 on the squared operator) plus four transverse ones worth
# (lam*alpha)**(-8) = lam**(-3); then take the square root.
TTSTAR_LAMBDA = (_F(-2) + _F(-8) * LAMBDA_ALPHA_EFFECTIVE) / 2


@dataclass(frozen=True)
class KernelDerivation:
    n_t: int
    n_xp: int
    lam_exp: Fraction
    d_exp: Fraction
    schur_raw_lam: Fraction   # subtotal before the TT* refinement
    schur_raw_d: Fraction
    ttstar_lam: Fraction
    steps: tuple[tuple[str, Fraction, Fraction], ...]


def kernel_derivation(n_t: int = 6, n_xp: int = 6) -> KernelDerivation:
    """Compose the kernel bound from counted partial integrations.

    n_t integrations in time give +1/2 each; n_xp transverse integrations
    give (-1/3, -1/2) each; the cell Jacobian gives -3; the TT* refinement
    gives -5/2.  The Schur subtotal before TT* is exposed so the raw
    intermediate can be asserted on its own.
    """
    if n_t < 0 or n_xp < 0:
        raise ConfigError("integration counts must be nonnegative")
    steps = (
        ("time_ibp", n_t * TIME_IBP[0], n_t * TIME_IBP[1]),
        ("transverse_ibp", n_xp * TRANSVERSE_IBP[0], n_xp * TRANSVERSE_IBP[1]),
        ("jacobian", JACOBIAN[0], JACOBIAN[1]),
        ("ttstar", TTSTAR_LAMBDA, _F(0)),
    )
    schur_lam = sum((s[1] for s in steps[:3]), _F(0))
    schur_d = sum((s[2] for s in steps[:3]), _F(0))
    return KernelDerivation(
        n_t=n_t,
        n_xp=n_xp,
        lam_exp=schur_lam + TTSTAR_LAMBDA,
        d_exp=schur_d,
        schur_raw_lam=schur_lam,
        schur_raw_d=schur_d,
        ttstar_lam=TTSTAR_LAMBDA,
        steps=steps,
    )


@dataclass(frozen=True)
class NarrowDerivation:
    steps: int
    radius_exponents: tuple[Fraction, ...]  # (7/8)**j for j = 0..steps-1
    local_exp: Fraction
    global_exp: Fraction
    angular_logs: tuple[Fraction, ...]      # j = 1..steps, all must be > 0


def narrow_derivation(steps: int = 2) -> NarrowDerivation:
    """Cascade of shrinking frequency radii lam_j = lam**((7/8)**j).

    Each step pays a factor lam_j**(-1/2); the local total is
    sum_j -(1/2)*(7/8)**j and the global share is one twelfth of it.  The
    angular-window logs 5/4 - (4/3)*(7/8)**j must stay positive for the
    cascade to make sense; that is checked here, not assumed.
    """
    if steps < 1:
        raise ConfigError("cascade needs at least one step")
    ratios = tuple(_F(7, 8) ** j for j in range(steps))
    local = sum((-_F(1, 2) * q for q in ratios), _F(0))
    logs = tuple(_F(5, 4) - _F(4, 3) * _F(7, 8) ** j for j in range(1, steps + 1))
    if any(g <= 0 for g in logs):
        raise ScenarioError("angular-window log went nonpositive")
    return NarrowDerivation(
        steps=steps,
        radius_exponents=ratios,
        local_exp=local,
        global_exp=local / 12,
        angular_logs=logs,
    )


@dataclass(frozen=True)
class DampingArithmetic:
    base: tuple[Fraction, Fraction]       # one transverse integration
    window_hit: Fraction                  # extra decay when a window is hit
    damped: tuple[Fraction, Fraction]     # base + window hit
    six_hits: tuple[Fraction, Fraction]   # damped, applied six times


def damping_arithmetic() -> DampingArithmetic:
    """Window-damped transverse integration: (-1/3,-1/2) plus -1/2 in lam."""
    base = TRANSVERSE_IBP
    hit = _F(-1, 2)
    damped = (base[0] + hit, base[1])
    return DampingArithmetic(
        base=base,
        window_hit=hit,
        damped=damped,
        six_hits=(6 * damped[0], 6 * damped[1]),
    )


# ---------------------------------------------------------------------------
# checkpoint table: regenerate every quoted number and diff it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointRow:
    name: str
    derived_lam: Fraction
    derived_d: Fraction | None
    golden_lam: Fraction
    golden_d: Fraction | None

    @property
    def match(self) -> bool:
        return self.derived_lam == self.golden_lam and self.derived_d == self.golden_d


#: frozen golden values; scenario balances and derivation endpoints
GOLDEN: dict[str, tuple[Fraction, Fraction | None]] = {
    "balance_main": (_F(-2557, 576), _F(-3)),
    "balance_tube_packing_optimal": (_F(-3277, 576), _F(-15, 4)),
    "balance_tube_packing_conservative": (_F(-2893, 576), _F(-15, 4)),
    "balance_shortened": (_F(-2845, 576), _F(-11, 4)),
    "kernel_6_6": (_F(-9, 2), _F(-3)),
    "kernel_6_5": (_F(-25, 6), _F(-5, 2)),
    "kernel_0_0": (_F(-11, 2), _F(0)),
    "schur_raw_6_6": (_F(-2), _F(-3)),
    "ttstar": (_F(-5, 2), None),
    "lambda_alpha_effective": (_F(3, 8), None),
    "broad_row_product": (_F(5, 36), None),
    "overlap_sum": (_F(-7, 3), _F(1, 2)),
    "tube_packing_row_optimal": (_F(-7, 6), _F(1, 4)),
    "narrow_local_2": (_F(-15, 16), None),
    "narrow_global_2": (_F(-5, 64), None),
    "narrow_log_1": (_F(1, 12), None),
    "narrow_log_2": (_F(11, 48), None),
    "damping_damped": (_F(-5, 6), _F(-1, 2)),
    "damping_six_hits": (_F(-5), _F(-3)),
    "effective_main": (_F(-2701, 576), None),
    "effective_kernel_6_6": (_F(-19, 4), None),
}


def checkpoint_table() -> tuple[CheckpointRow, ...]:
    """Re-derive every checkpoint number and pair it with its golden value."""
    scs = scenarios()
    k66 = kernel_derivation(6, 6)
    k65 = kernel_derivation(6, 5)
    k00 = kernel_derivation(0, 0)
    nar = narrow_derivation(2)
    damp = damping_arithmetic()

    # overlap sum: cross-sections rho**4 = lam**(-2), one inverse frequency
    # step 1/(lam*r) = lam**(-1/3), and half the degree budget
    overlap = (_F(-2) + _F(-1, 3), _F(1, 2))
    derived: dict[str, tuple[Fraction, Fraction | None]] = {
        "balance_main": sum_exponents(scs["main"]),
        "balance_tube_packing_optimal": sum_exponents(scs["tube_packing_optimal"]),
        "balance_tube_packing_conservative": sum_exponents(
            scs["tube_packing_conservative"]
        ),
        "balance_shortened": sum_exponents(scs["shortened"]),
        "kernel_6_6": (k66.lam_exp, k66.d_exp),
        "kernel_6_5": (k65.lam_exp, k65.d_exp),
        "kernel_0_0": (k00.lam_exp, k00.d_exp),
        "schur_raw_6_6": (k66.schur_raw_lam, k66.schur_raw_d),
        "ttstar": (k66.ttstar_lam, None),
        "lambda_alpha_effective": (LAMBDA_ALPHA_EFFECTIVE, None),
        # the broad row is the product of the angular exponent -5/8 and the
        # interpolation slope -2/9
        "broad_row_product": (_F(-5, 8) * _F(-2, 9), None),
        "overlap_sum": overlap,
        "tube_packing_row_optimal": (overlap[0] / 2, overlap[1] / 2),
        "narrow_local_2": (nar.local_exp, None),
        "narrow_global_2": (nar.global_exp, None),
        "narrow_log_1": (nar.angular_logs[0], None),
        "narrow_log_2": (nar.angular_logs[1], None),
        "damping_damped": damp.damped,
        "damping_six_hits": damp.six_hits,
        "effective_main": (
            effective_lambda_exponent(*sum_exponents(scs["main"])), None,
        ),
        "effective_kernel_6_6": (
            effective_lambda_exponent(k66.lam_exp, k66.d_exp), None,
        ),
    }
    return tuple(CheckpointRow(name, *derived[name], glam, gd)
                 for name, (glam, gd) in GOLDEN.items())

