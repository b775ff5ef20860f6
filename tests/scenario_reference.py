"""Reference of the closed-loop runner's agent logic, pass by pass.

`ReferenceRunner.step` runs each control interval as the runner did before
its agent work moved into one fleet pass and one post-mix pass: each
battery books the pending pair through `Battery.apply` before the plant
runs, the shares and their learned correction are formed in two steps,
the fleet plans modes, boxes and cost models in three lists, the
gradients at the applied pair take their own pass, the vectorised
reference optimizer (`optimizer_reference.VectorOptimizer`) iterates, a
second pass per agent prices the new point, and the row is assembled from
eleven per-agent lists. The plant and the surrogate are the runner's own;
their references are `plant_reference` and the tests of `orra.aie`. The
runner keeps the same float operations in the same order, so the two
tables must agree bit for bit.
"""
from itertools import chain

import numpy as np

from optimizer_reference import VectorOptimizer
from orra.aie import compute_ace
from orra.bess import feasible_interval, mode_select
from orra.degradation import interval_cost
from orra.grid import grid_step, responsive_load
from orra.oracle import centralized_solve
from orra.scenario import ScenarioRunner


def plan(fleet, shares):
    """Each battery's mode, box and cost model, as three lists."""
    modes, boxes, models = [], [], []
    for b, share in zip(fleet.batteries, shares):
        b.mode = mode = mode_select(share, b.mode)
        modes.append(mode)
        boxes.append(feasible_interval(b.soc, mode, b.params, fleet.tau))
        models.append(interval_cost(b.residues, b.terms))
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
                b.apply(d, c, tau)
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

        modes, boxes, models = plan(self.fleet, shares)
        grads = [m.gradient(d, c) for m, (d, c) in zip(models, self.u)]
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
            g_d, g_c = m.gradient(d, c)
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
                models, modes, boxes, -float(np.sum(shares)),
                nu_hint=self.nu_hint,
            )
            self.nu_hint = sol.nu
            row.append(sum(m.value(d, c) for m, (d, c) in zip(models, sol.u)))
            row += chain.from_iterable(sol.u)
            rec.oracle_clamped += int(sol.clamped)
        rec.table[k] = row
        self.u, self.p_bess = u_next, p_bess
