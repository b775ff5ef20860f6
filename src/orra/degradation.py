"""Streaming rainflow cycle counting and the battery usage cost model.

SoC samples arrive one per control interval. The counter keeps the residue
stack (extrema not yet cancelled), closes nested cycles online with the
three/four-point rule; the top two residues are the currently open half
cycle, which the per-interval cost prices as a prospective action deepens
it (`bess.Fleet.apply_all` builds each battery's `IntervalCost`).

Lifetime loss per counted cycle follows the power-law depth curve
(n_cyc/2) * a * depth**b. Within one control interval the residue stack is
frozen, which makes the cost convex in the power decision.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

HOURS_PER_SECOND = 1.0 / 3600.0


class CycleEvent(NamedTuple):
    """One counted cycle: SoC depth and its count weight (0.5 half, 1.0 full)."""

    depth: float
    n_cyc: float


ResidueStack = tuple  # tuple[float, ...]: the SoC of each extremum


def rainflow_step(x_new, residues: ResidueStack):
    """Feed one SoC sample; returns (closed cycle events, new residue stack).

    The stack holds the SoC of each extremum not yet cancelled. Its top
    always tracks the most recent extremum, so a sample that continues the
    current direction replaces the top instead of growing the stack.
    Closures emit full cycles, except when the range still contains the
    very first residue, which emits a half cycle and drops that origin.
    """
    x_new = float(x_new)
    stack = list(residues)
    if not stack:
        return (), (x_new,)
    if x_new == stack[-1]:
        return (), residues
    if len(stack) == 1:
        return (), (stack[0], x_new)
    if (x_new - stack[-1]) * (stack[-1] - stack[-2]) > 0:
        stack[-1] = x_new  # same direction: extend the extremum
    else:
        stack.append(x_new)
    events = []
    while len(stack) >= 3:
        x_rng = abs(stack[-1] - stack[-2])
        y_rng = abs(stack[-2] - stack[-3])
        if x_rng < y_rng:
            break
        if len(stack) == 3:
            events.append(CycleEvent(y_rng, 0.5))
            stack.pop(0)
        else:
            events.append(CycleEvent(y_rng, 1.0))
            del stack[-3:-1]
    return tuple(events), tuple(stack)


class IntervalCost(NamedTuple):
    """One battery's plan for a control interval: its mode (1 discharge,
    0 charge), which picks the one power coordinate it may use, the top
    hi of that coordinate's box [0, hi], MW, and its usage cost with the
    residue stack frozen.

    value(d, c) = theta_b*(d - c)**2 + big_theta*(mu0 + g_d*d + g_c*c)**b
    where mu0 is the open half-cycle depth and g_d, g_c convert power into
    SoC deepening. The coordinate that would heal the open half cycle gets a
    zero slope (its closure credit is only realized when a cycle completes),
    which keeps the model convex.
    """

    mode: int
    hi: float
    mu0: float
    g_d: float
    g_c: float
    theta_b: float
    big_theta: float
    b: float

    def value(self, d, c):
        _, _, mu0, g_d, g_c, theta_b, big_theta, b = self
        mu = mu0 + g_d * d + g_c * c
        return theta_b * (d - c) ** 2 + big_theta * mu**b


class CostTerms(NamedTuple):
    """A battery's interval-cost constants for intervals of a fixed length.

    g_discharge and g_charge convert power into SoC deepening; theta_b and
    big_theta weight the wear and aging terms; b is the aging exponent.
    """

    g_discharge: float
    g_charge: float
    theta_b: float
    big_theta: float
    b: float


class Aging(NamedTuple):
    """Power-law depth-to-loss coefficients: a cycle of depth m and count
    weight n_cyc costs (n_cyc/2) * a * m**b of the battery's life."""

    a: float
    b: float


# a typical Li-ion fit, shared by every battery; b >= 1 keeps the interval
# cost convex
AGING = Aging(5.24e-4, 2.03)


def cost_terms(capacity, eta_c, eta_d, theta_a, theta_b, tau) -> CostTerms:
    """The interval-cost constants of one battery for tau-second intervals."""
    tau_h = tau * HOURS_PER_SECOND
    g_discharge = tau_h / (eta_d * capacity)
    g_charge = eta_c * tau_h / capacity
    big_theta = theta_a * (3600.0 / tau) * (AGING.a / 4.0)
    return CostTerms(g_discharge, g_charge, theta_b, big_theta, AGING.b)


def total_loss(events) -> float:
    """Summed lifetime loss of a collection of cycle events."""
    depths = np.array([e.depth for e in events])
    counts = np.array([e.n_cyc for e in events])
    return float(((counts / 2.0) * AGING.a * depths**AGING.b).sum())
