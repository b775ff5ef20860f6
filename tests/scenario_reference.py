"""Reference of the closed-loop runner's agent logic, pass by pass.

`ReferenceRunner.step` runs each control interval as the runner did before
its agent work moved into one fleet pass and one post-mix pass: each
battery books the pending pair before the plant runs, the shares and their
learned correction are formed in two steps, the fleet plans modes, boxes
and cost models in three lists, the gradients at the applied pair take
their own pass, the vectorised reference optimizer
(`optimizer_reference.VectorOptimizer`) iterates, a second pass per agent
prices the new point, and the row is assembled from eleven per-agent
lists. The battery's SoC step, mode, box and cost model are this module's
own copies of the helpers the package once called, so the fleet pass is
checked against code it shares nothing with but the rainflow counter and
the loss law (see `rainflow_reference` and the tests of
`orra.degradation`). The plant and the surrogate are the runner's own;
their references are `plant_reference` and the tests of `orra.aie`. The
runner keeps the same float operations in the same order, so the two
tables must agree bit for bit.
"""
from itertools import chain

import numpy as np

from optimizer_reference import VectorOptimizer, cost_gradient
from orra.aie import compute_ace
from orra.bess import SOC_TOL, SocViolationError
from orra.degradation import IntervalCost, rainflow_step, total_loss
from orra.grid import grid_step, responsive_load
from orra.oracle import centralized_solve
from orra.scenario import ScenarioRunner


def soc_step(soc, c, d, params, tau):
    """The SoC after one interval of tau seconds at charge c / discharge d
    MW, within the box of `params`, the fleet config section."""
    if c < 0 or d < 0:
        raise ValueError("powers must be nonnegative")
    if c > 0 and d > 0:
        raise ValueError("cannot charge and discharge simultaneously")
    tau_h = tau / 3600.0
    x = soc + params.eta_c * tau_h / params.capacity * c
    x -= tau_h / (params.eta_d * params.capacity) * d
    lo, hi = params.soc_min, params.soc_max
    if not lo - SOC_TOL <= x <= hi + SOC_TOL:
        raise SocViolationError(f"soc {x:.9f} outside [{lo}, {hi}]")
    return min(max(x, lo), hi)


def book(b, d, c, params, tau):
    """Step a battery's SoC within the limits of `params`, the fleet config
    section, close the rainflow cycles the step completes and add their
    wear to its lifetime loss."""
    b.soc = soc_step(b.soc, c, d, params, tau)
    events, b.residues = rainflow_step(b.soc, b.residues)
    if events:
        b.lifetime_loss += total_loss(events)


def mode_select(share, prev_mode):
    """Discharge (1) on a negative share, charge (0) on a positive one,
    and keep the previous mode on a zero share."""
    if share < 0:
        return 1
    if share > 0:
        return 0
    return int(prev_mode)


def feasible_interval(soc, mode, params, tau):
    """Bounds (lo, hi) on the active power coordinate for one interval."""
    tau_h = tau / 3600.0
    if mode == 1:
        x = (soc - params.soc_min) * params.eta_d * params.capacity / tau_h
        return 0.0, max(min(params.discharge_limit, x), 0.0)
    x = (params.soc_max - soc) * params.capacity / (params.eta_c * tau_h)
    return 0.0, max(min(params.charge_limit, x), 0.0)


def interval_cost(residues, terms):
    """The frozen-residue cost of one interval, as the last six fields of
    an IntervalCost: only the coordinate that deepens the open half cycle
    moves the aging term, and either does when no half cycle is open
    yet."""
    g_discharge, g_charge, theta_b, big_theta, b = terms
    if len(residues) < 2:
        mu0, direction = 0.0, 0
    else:
        delta = residues[-1] - residues[-2]
        mu0, direction = abs(delta), (1 if delta > 0 else -1)
    if direction < 0:
        g_d, g_c = g_discharge, 0.0
    elif direction > 0:
        g_d, g_c = 0.0, g_charge
    else:
        g_d, g_c = g_discharge, g_charge
    return mu0, g_d, g_c, theta_b, big_theta, b


def plan(fleet, shares, cfg):
    """Each battery's mode, box and cost model under the scenario config
    cfg, as three lists; each model is the IntervalCost plan of its mode,
    the top of its box and its cost, as the package's solvers take it."""
    modes, boxes, models = [], [], []
    for b, share in zip(fleet.batteries, shares):
        b.mode = mode = mode_select(share, b.mode)
        modes.append(mode)
        boxes.append(feasible_interval(b.soc, mode, cfg.fleet, cfg.tau))
        models.append(IntervalCost(mode, boxes[-1][1],
                                   *interval_cost(b.residues, b.terms)))
    return modes, boxes, models


class ReferenceRunner(ScenarioRunner):
    """A ScenarioRunner whose step walks the agents pass by pass."""

    def __init__(self, config, oracle_every=False):
        super().__init__(config, oracle_every=oracle_every)
        self.optimizer = VectorOptimizer(self.optimizer.weights,
                                         config.optimizer)

    def step(self, k: int) -> None:
        cfg = self.config
        tau = cfg.tau
        t0 = k * tau
        enabled = cfg.bess_enabled
        rec = self.result
        plant = self.plant

        if enabled:
            for b, (d, c) in zip(self.fleet.batteries, self.u):
                book(b, d, c, cfg.fleet, tau)
        agc2 = compute_ace(-plant.p_tie, cfg.grid.bias, plant.df[1])
        steps, dt_inner = cfg.inner_steps, cfg.dt_inner
        loads = [self.disturbance(t0 + j * dt_inner) for j in range(steps)]
        grid_step(plant, self.p_bess, (self.agc1, agc2), loads)

        df1 = plant.df[0]
        p_tie = plant.p_tie
        du_cg = pm_cg = 0.0
        for u, p in zip(plant.du_gov[0], plant.p_m[0]):
            du_cg += u
            pm_cg += p
        if cfg.signal == "AIE":
            error = p_tie + cfg.aie.d_prime * df1
            shares = [s * error + s * du_cg - s * pm_cg for s in self.sigma]
            if self.surrogate.infill_decide(df1):
                self.surrogate.add_sample(df1, -responsive_load(df1, cfg.grid))
            correction = self.surrogate.evaluate(df1)
            shares = [a + s * correction for a, s in zip(shares, self.sigma)]
            agc1 = 0.0
            for a in shares:
                agc1 += a
            self.agc1 = agc1
        else:
            ace = compute_ace(p_tie, cfg.grid.bias, df1)
            shares = [s * ace for s in self.sigma]
            self.agc1 = float(ace)

        plant_cells = [t0 + tau, *plant.df, p_tie, self.disturbance(t0 + tau)]
        signal = [pm_cg, *plant.p_m[0], self.agc1,
                  0 if self.surrogate is None else self.surrogate.m]
        if not enabled:
            zero = [0.0] * len(shares)
            row = [*plant_cells, 0.0, *signal, *chain.from_iterable(zip(
                shares, zero, zero, zero, self.fleet.soc, *[zero] * 6))]
            rec.table[k, :len(row)] = row
            return

        modes, boxes, models = plan(self.fleet, shares, cfg)
        grads = [cost_gradient(m, d, c) for m, (d, c) in zip(models, self.u)]
        u_next, info = self.optimizer.iterate(
            self.u, grads, shares, df1, boxes, modes
        )
        # the reference's arrays as the Python floats the runner holds
        u_next = [tuple(pair) for pair in u_next.tolist()]
        info = {key: value.tolist() if isinstance(value, np.ndarray)
                else value for key, value in info.items()}
        f_dist = p_bess = 0.0
        marginals, interior = [], []
        for m, (d, c), mode, (lo, hi) in zip(models, u_next, modes, boxes):
            f_dist += m.value(d, c)
            g_d, g_c = cost_gradient(m, d, c)
            active = d if mode == 1 else c
            marginals.append(g_d if mode == 1 else g_c)
            interior.append(lo + 1e-9 < active < hi - 1e-9)
            p_bess += d - c
        row = [
            *plant_cells, p_bess, *signal, *chain.from_iterable(zip(
                shares, modes, *zip(*u_next), self.fleet.soc, marginals,
                info["lam"], info["lam_mixed"], info["y"], info["y_mixed"],
                info["h"])),
            info["kappa"], info["eps"], info["reset"], info["stage"],
            info["t"], info["bound"], f_dist,
            *chain.from_iterable(info["s"]), *interior,
        ]
        if self.oracle_every:
            sol = centralized_solve(
                models, -float(np.sum(shares)), nu_hint=self.nu_hint,
            )
            self.nu_hint = sol.nu
            row.append(sum(m.value(d, c) for m, (d, c) in zip(models, sol.u)))
            row += chain.from_iterable(sol.u)
            rec.oracle_clamped += int(sol.clamped)
        rec.table[k] = row
        self.u, self.p_bess = u_next, p_bess
