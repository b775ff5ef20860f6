"""Battery models: SoC stepping, mode selection, and feasible boxes.

Each battery carries its SoC, its mode and its own rainflow residue stack,
so the per-interval usage cost can be rebuilt after every applied
decision. Decisions are nonnegative (discharge, charge) pairs with at most
one coordinate active, picked by a mode flag that follows the sign of the
battery's share of the area injection error; the optimizer projects them
onto the mode's box.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import degradation
from .degradation import AGING, CostTerms, ResidueStack

SOC_TOL = 1e-9


class SocViolationError(RuntimeError):
    """SoC left its box by more than tolerance: upstream projection bug."""


def check_soc_box(soc_min, soc_max) -> None:
    """Refuse an SoC box outside 0 <= soc_min < soc_max <= 1 (NaN too)."""
    if not 0 <= soc_min < soc_max <= 1:
        raise ValueError("need 0 <= soc_min < soc_max <= 1")


def soc_step(soc: float, c, d, params, tau) -> float:
    """Advance SoC by one interval of tau seconds at charge c / discharge d
    MW, within the box and limits of `params`, the fleet config section."""
    if c < 0 or d < 0:
        raise ValueError("powers must be nonnegative")
    if c > 0 and d > 0:
        raise ValueError("cannot charge and discharge simultaneously")
    tau_h = tau / 3600.0
    x = soc + params.eta_c * tau_h / params.capacity * c
    x -= tau_h / (params.eta_d * params.capacity) * d
    lo, hi = params.soc_min, params.soc_max
    # one box test, which a NaN fails as it fails every comparison
    if not lo - SOC_TOL <= x <= hi + SOC_TOL:
        raise SocViolationError(f"soc {x:.9f} outside [{lo}, {hi}]")
    # min(max(x, lo), hi), without the calls
    return lo if x < lo else hi if x > hi else x


def mode_select(aie_i, prev_mode: int = 1) -> int:
    """Pick the permitted power direction for the coming interval.

    The mode follows the sign of the agent's injection-error share: a
    negative share means the area is short, and the battery discharges
    (1); a positive share means surplus, and it charges (0). The balance
    h_i = d_i - c_i + share_i fixes this sign. A zero share keeps the
    previous mode.
    """
    if aie_i < 0:
        return 1
    if aie_i > 0:
        return 0
    return int(prev_mode)


def feasible_interval(soc: float, mode: int, params, tau):
    """Bounds [lo, hi] on the active power coordinate for one interval."""
    if mode not in (0, 1):
        raise ValueError("mode must be 0 or 1")
    tau_h = tau / 3600.0
    # min(limit, x) and max(hi, 0.0), without the calls
    if mode == 1:
        limit = params.discharge_limit
        x = (soc - params.soc_min) * params.eta_d * params.capacity / tau_h
    else:
        limit = params.charge_limit
        x = (params.soc_max - soc) * params.capacity / (params.eta_c * tau_h)
    hi = x if x < limit else limit
    return 0.0, 0.0 if hi < 0.0 else hi


@dataclass
class Battery:
    """One battery: SoC, permitted direction, rainflow bookkeeping and its
    interval-cost constants `terms`; `params` is the fleet config section,
    whose limits all batteries share, and `aging` the wear law, which they
    share too."""

    aging = AGING  # not a field: every battery shares it
    params: object
    soc: float
    terms: CostTerms
    mode: int = 1  # 1 discharge, 0 charge
    residues: ResidueStack = ()
    lifetime_loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.residues:
            self.residues = (float(self.soc),)  # the first extremum

    def apply(self, d: float, c: float, tau: float) -> None:
        """Apply one interval's powers: step the SoC, close any rainflow
        cycles it completes and add their wear to the lifetime loss."""
        self.soc = soc_step(self.soc, c, d, self.params, tau)
        events, self.residues = degradation.rainflow_step(
            self.soc, self.residues
        )
        if events:  # adding no loss would change no bit
            self.lifetime_loss += degradation.total_loss(events)


class Fleet:
    """The batteries of a fleet config section, in agent order, on control
    intervals of tau seconds."""

    def __init__(self, cfg, tau: float) -> None:
        # the batteries differ only in their SoC and their wear weights
        self.batteries = [Battery(cfg, float(soc), degradation.cost_terms(
            cfg.capacity, cfg.eta_c, cfg.eta_d, theta_a, theta_b, tau,
        )) for soc, theta_a, theta_b in zip(cfg.initial_soc,
                                            cfg.per_battery(cfg.theta_a),
                                            cfg.per_battery(cfg.theta_b))]
        self.tau = tau

    @property
    def soc(self) -> list:
        return [b.soc for b in self.batteries]

    def apply_all(self, u, shares):
        """Book each battery's pending (discharge, charge) pair in u, then
        set its mode from its injection-error share for the coming
        interval.

        Returns lists of the interval's modes, (lo, hi) boxes on the active
        power coordinate, frozen-residue cost models, and each model's
        gradient at the booked pair.
        """
        tau = self.tau
        modes, boxes, models, grads = [], [], [], []
        for b, share, (d, c) in zip(self.batteries, shares, u):
            b.apply(d, c, tau)
            b.mode = mode = mode_select(share, b.mode)
            modes.append(mode)
            boxes.append(feasible_interval(b.soc, mode, b.params, tau))
            model = degradation.interval_cost(b.residues, b.terms)
            models.append(model)
            grads.append(model.gradient(d, c))
        return modes, boxes, models, grads
