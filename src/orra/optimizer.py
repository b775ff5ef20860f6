"""Distributed primal-dual coordination of the storage fleet.

Each agent keeps a local dual estimate of the shared power-balance price
and a tracker of the network-average constraint violation. One iteration
per control interval: gossip-mix the dual and tracking variables with the
doubly stochastic weight matrix, descend the local cost along the saddle
direction, project onto the agent's mode box, ascend the dual against the
mixed tracker, then refresh the tracker with the local constraint change.
Stepsizes decay polynomially inside a stage and restart when the horizon
cap is hit or the frequency deviation spikes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain


def check_schedule(o) -> None:
    """Refuse the exponents of optimizer config section `o` outside the
    sublinear-regret decay window."""
    if not 0 < o.alpha <= o.beta < 1:
        raise ValueError("need 0 < alpha <= beta < 1")
    if 2 * o.beta - 3 * o.alpha > 1e-12:
        raise ValueError("need 2*beta - 3*alpha <= 0")
    if 2 * o.beta - o.alpha - 1 > 1e-12:
        raise ValueError("need 2*beta - alpha - 1 <= 0")


def schedule_step(t: int, df: float, o):
    """Advance the stage counter one interval under optimizer config `o`.

    Returns (kappa, eps, t_next, reset), the rates kappa0 * t**-alpha and
    eps0 * t**-beta, at full gain for t <= 1. The reset fires before the
    rates are read, so the first interval of a fresh stage runs at full gain.
    """
    reset = t >= o.t_max or abs(df) >= o.f_threshold
    if reset:
        t = 0
    if t <= 1:
        return o.kappa0, o.eps0, t + 1, reset
    return o.kappa0 * t**-o.alpha, o.eps0 * t**-o.beta, t + 1, reset


@dataclass
class OrraOptimizer:
    """Stateful wrapper: schedule, dual clipping, and per-iteration logs,
    with the gains, stage cap and gamma of optimizer config `config`.

    `weights` holds the mixing weights as rows. Agent i mixes a vector over
    itself and its neighbours, the j with a nonzero w_ij, in one fixed
    order: w_ii * x_i first, then each neighbour's term in ascending j,
    summed one by one (Metropolis averaging, Xiao & Boyd 2004).
    """

    weights: list
    config: object

    def __post_init__(self):
        check_schedule(self.config)
        self.weights = [[float(w) for w in row] for row in self.weights]
        self.mix = [
            (row[i], tuple((j, w) for j, w in enumerate(row)
                           if w != 0.0 and j != i))
            for i, row in enumerate(self.weights)
        ]
        self.lam = [0.0] * len(self.weights)
        self.y = None
        self.h_prev = None
        self.t = 0
        self.b_y = 0.0
        self.stage = 0

    def mixed(self, lam, y) -> tuple:
        """Each agent's mix of the duals lam and of the trackers y over
        itself and its neighbours."""
        lam_mixed, y_mixed = [], []
        for (w_ii, near), lam_i, y_i in zip(self.mix, lam, y):
            total_lam, total_y = w_ii * lam_i, w_ii * y_i
            for j, w in near:
                total_lam += w * lam[j]
                total_y += w * y[j]
            lam_mixed.append(total_lam)
            y_mixed.append(total_y)
        return lam_mixed, y_mixed

    def iterate(self, u, plans, aie_shares, df, soc, row):
        """Advance every agent one control interval; returns (u_next, info).

        u holds one (discharge, charge) pair per agent, the pair its
        battery booked; plans each agent's IntervalCost for the interval,
        its mode, box top and cost; soc its battery's state of charge.
        Each agent mixes its dual and tracker with its neighbours', then
        one pass per agent prices the slope of its cost at u, steps and
        projects its dispatch, ascends its dual, refreshes its tracker
        against its new constraint value, prices the new point, and appends
        its trace cells to row: share, mode, d, c, soc, the cost slope along
        the active coordinate, lam, mixed lam, y, mixed y and h. Then come
        kappa, eps, reset, stage, t, the dual bound and the fleet's cost,
        then each agent's saddle direction and whether its dispatch sits
        strictly inside its box. u_next and the per-agent entries of info
        are lists; info's p_bess is the fleet's net injection under u_next
        and f_dist its cost.

        Raises FloatingPointError when the dual bound, a dual or a tracker
        value is not finite.
        """
        if self.y is None:
            h0 = [d - c + a for (d, c), a in zip(u, aie_shares)]
            self.y = self.h_prev = h0
            self.b_y = max(0.0, *map(abs, h0))

        o = self.config
        kappa, eps, t_next, reset = schedule_step(self.t, df, o)
        if reset:
            self.stage += 1
            # restart invalidates the accumulated decay headroom: pull the
            # price back inside the fresh-stage envelope
            cap = o.gamma * self.b_y * o.kappa0 / o.eps0
            self.lam = [-cap if v < -cap else cap if v > cap else v
                        for v in self.lam]
        bound = o.gamma * self.b_y * kappa / eps

        lam_mixed, y_mixed = self.mixed(self.lam, self.y)
        leak, gk, b_y = 1.0 - eps, o.gamma * kappa, self.b_y
        f_dist = p_bess = 0.0
        u_next, s, lam_next, h_new, y_next, interior = [], [], [], [], [], []
        for (d, c), plan, share, soc_i, lam, lm, y, ym, hp in zip(
                u, plans, aie_shares, soc, self.lam, lam_mixed, self.y,
                y_mixed, self.h_prev):
            mode, hi, mu0, cost_d, cost_c, theta_b, big_theta, b = plan
            # the cost's gradient at the booked pair
            mu = mu0 + cost_d * d + cost_c * c
            wear = 2.0 * theta_b * (d - c)
            aging = big_theta * b * mu ** (b - 1.0) if mu > 0 else 0.0
            g_d, g_c = wear + aging * cost_d, -wear + aging * cost_c
            # step against the saddle direction, then project onto the mode
            # box; the coordinate the mode forbids is zero. As with numpy's
            # clip on array bounds, a value tied with a box end takes the end
            # (-0.0 on a 0.0 bound comes out 0.0) and NaN passes through
            s_d, s_c = g_d + lm, -g_c + lm
            if mode == 1:
                d = d - kappa * s_d
                d = 0.0 if d <= 0.0 else d
                active = d = hi if d >= hi else d
                c = 0.0
            else:
                c = c + kappa * s_c
                c = 0.0 if c <= 0.0 else c
                active = c = hi if c >= hi else c
                d = 0.0
            net = d - c
            h = net + share
            # IntervalCost.value and .gradient at the new point, sharing
            # mu and d - c
            mu = mu0 + cost_d * d + cost_c * c
            f_dist += theta_b * net**2 + big_theta * mu**b
            wear = 2.0 * theta_b * net
            aging = big_theta * b * mu ** (b - 1.0) if mu > 0 else 0.0
            marginal = (wear + aging * cost_d if mode == 1
                        else -wear + aging * cost_c)
            p_bess += net
            row += (share, mode, d, c, soc_i, marginal, lam, lm, y, ym, h)
            u_next.append((d, c))
            s.append((s_d, s_c))
            lam_next.append(leak * lm + gk * ym)
            h_new.append(h)
            y_new = ym + h - hp
            y_next.append(y_new)
            if abs(y_new) > b_y:  # the largest |y| yet, as max() kept it
                b_y = abs(y_new)
            interior.append(1e-9 < active < hi - 1e-9)
        if not (math.isfinite(bound) and all(map(math.isfinite, lam_next))
                and all(map(math.isfinite, y_next))):
            raise FloatingPointError(
                f"the dual bound ({bound:.6g}), a dual or a tracker value is "
                f"not finite at stage {self.stage}, with optimizer.gamma "
                f"{o.gamma:g}"
            )
        t = self.t if not reset else 0
        row += (kappa, eps, reset, self.stage, t, bound, f_dist)
        row += chain.from_iterable(s)
        row += interior
        info = {
            "t": t,
            "stage": self.stage,
            "reset": reset,
            "kappa": kappa,
            "eps": eps,
            "lam": self.lam,
            "lam_mixed": lam_mixed,
            "y": self.y,
            "y_mixed": y_mixed,
            "s": s,
            "h": h_new,
            "bound": bound,
            "p_bess": p_bess,
            "f_dist": f_dist,
        }
        self.lam = lam_next
        self.y = y_next
        self.h_prev = h_new
        self.t = t_next
        self.b_y = b_y
        return u_next, info
