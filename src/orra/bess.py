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
from .degradation import AGING, CostTerms, IntervalCost, ResidueStack

SOC_TOL = 1e-9


class SocViolationError(RuntimeError):
    """SoC left its box by more than tolerance: upstream projection bug."""


def check_soc_box(soc_min, soc_max) -> None:
    """Refuse an SoC box outside 0 <= soc_min < soc_max <= 1 (NaN too)."""
    if not 0 <= soc_min < soc_max <= 1:
        raise ValueError("need 0 <= soc_min < soc_max <= 1")


@dataclass
class Battery:
    """One battery: SoC, permitted direction, rainflow bookkeeping and its
    interval-cost constants `terms`; `aging` is the wear law, which every
    battery shares, as it shares the limits its Fleet holds."""

    aging = AGING  # not a field: every battery shares it
    soc: float
    terms: CostTerms
    mode: int = 1  # 1 discharge, 0 charge
    residues: ResidueStack = ()
    lifetime_loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.residues:
            self.residues = (float(self.soc),)  # the first extremum


class Fleet:
    """The batteries of a fleet config section, in agent order, on control
    intervals of tau seconds."""

    def __init__(self, cfg, tau: float) -> None:
        # the batteries differ only in their SoC and their wear weights
        self.batteries = [Battery(float(soc), degradation.cost_terms(
            cfg.capacity, cfg.eta_c, cfg.eta_d, theta_a, theta_b, tau,
        )) for soc, theta_a, theta_b in zip(cfg.initial_soc,
                                            cfg.per_battery(cfg.theta_a),
                                            cfg.per_battery(cfg.theta_b))]
        # the limits all batteries share, in apply_all's order
        tau_h = tau / 3600.0
        self.limits = (
            cfg.eta_c * tau_h / cfg.capacity,
            tau_h / (cfg.eta_d * cfg.capacity), cfg.soc_min, cfg.soc_max,
            cfg.soc_min - SOC_TOL, cfg.soc_max + SOC_TOL, cfg.eta_d,
            cfg.capacity, tau_h, cfg.eta_c * tau_h, cfg.discharge_limit,
            cfg.charge_limit,
        )

    @property
    def soc(self) -> list:
        return [b.soc for b in self.batteries]

    def apply_all(self, u, shares):
        """Book each battery's pending (discharge, charge) pair in u, then
        set its mode from its injection-error share for the coming
        interval.

        Booking steps the SoC (ValueError for a negative power or a
        two-sided pair, SocViolationError for an SoC past the box by more
        than SOC_TOL, NaN included), closes the rainflow cycles the step
        completes and books their wear. A negative share, an area short of
        power, discharges (mode 1), a positive one charges (0): the balance
        h_i = d_i - c_i + share_i fixes the sign.

        Returns each battery's plan for the interval, an IntervalCost: its
        mode, the top of its [0, hi] box on the active power coordinate and
        its frozen-residue cost.
        """
        (charge_gain, discharge_gain, soc_min, soc_max, floor, ceiling,
         eta_d, capacity, tau_h, charge_hours, discharge_limit,
         charge_limit) = self.limits
        plans = []
        for b, share, (d, c) in zip(self.batteries, shares, u):
            if c < 0 or d < 0:
                raise ValueError("powers must be nonnegative")
            if c > 0 and d > 0:
                raise ValueError("cannot charge and discharge simultaneously")
            x = b.soc + charge_gain * c
            x -= discharge_gain * d
            # one box test, which a NaN fails as it fails every comparison
            if not floor <= x <= ceiling:
                raise SocViolationError(
                    f"soc {x:.9f} outside [{soc_min}, {soc_max}]")
            # min(max(x, soc_min), soc_max), without the calls
            b.soc = soc = (soc_min if x < soc_min
                           else soc_max if x > soc_max else x)
            # on the module, where a tracer may wrap them
            events, b.residues = degradation.rainflow_step(soc, b.residues)
            if events:  # adding no loss would change no bit
                b.lifetime_loss += degradation.total_loss(events)

            # a zero share keeps the mode
            mode = b.mode = 1 if share < 0 else 0 if share > 0 else b.mode
            # the SoC headroom in MW within the power limit
            if mode == 1:
                x = (soc - soc_min) * eta_d * capacity / tau_h
                hi = x if x < discharge_limit else discharge_limit
            else:
                x = (soc_max - soc) * capacity / charge_hours
                hi = x if x < charge_limit else charge_limit

            # only the coordinate that deepens the open half cycle, the top
            # two residues, ages (either one when none is open)
            g_discharge, g_charge, theta_b, big_theta, exponent = b.terms
            residues = b.residues
            if len(residues) < 2:
                mu0, g_d, g_c = 0.0, g_discharge, g_charge
            else:
                delta = residues[-1] - residues[-2]
                mu0 = abs(delta)
                g_d, g_c = ((0.0, g_charge) if delta > 0
                            else (g_discharge, 0.0))
            plans.append(IntervalCost(mode, 0.0 if hi < 0.0 else hi, mu0,
                                      g_d, g_c, theta_b, big_theta, exponent))
        return plans
