"""Closed-loop scenario runner: plant, signal chain, fleet, coordinator.

Each control interval applies the pending fleet decision, integrates the
grid over the interval, measures the area signals (injection error with
the learned responsive-load correction, or the classic control error),
refreshes modes, feasible boxes, and wear-cost models, then advances the
distributed optimizer one iteration to produce the next decision. Every
interval is recorded in place into a preallocated RunResult; one column
spec (TRACE_SPEC) lays that record out as the trace file and tells the
trace verifier where to look.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .aie import RbfSurrogate, aie_shares, check_participation, compute_ace
from .bess import Battery, BessParams, Fleet
from .comm_graph import Topology, build_metropolis_weights, default_topology
from .grid import (
    AreaParams,
    SectionalDroop,
    grid_step,
    scenario_fluctuation,
    zero_state,
)
from .optimizer import LearningSchedule, OrraOptimizer
from .oracle import centralized_solve

TRACE_SCHEMA = "orra-trace-v1"
OUT_DIR_ENV = "ORRA_OUT_DIR"


class ConfigError(ValueError):
    """Scenario configuration failed validation."""


@dataclass
class FleetConfig:
    initial_soc: tuple = (0.35, 0.45, 0.5, 0.55, 0.65)
    capacity: float = 2.0  # MWh
    discharge_limit: float = 1.0  # MW
    charge_limit: float = 1.0  # MW
    eta_c: float = 0.95
    eta_d: float = 0.95
    soc_min: float = 0.2
    soc_max: float = 0.8
    theta_a: tuple | float = 1000.0
    theta_b: tuple | float = 0.1

    @property
    def n(self) -> int:
        return len(self.initial_soc)

    def per_battery(self, value) -> tuple:
        if isinstance(value, (int, float)):
            return (float(value),) * self.n
        if len(value) != self.n:
            raise ConfigError("per-battery list length must match fleet size")
        return tuple(float(v) for v in value)


@dataclass
class GridConfig:
    inertia: float = 10.0
    damping: float = 1.0
    inv_droops: tuple = (20.0, 20.0, 20.0)
    t_gov: float = 0.2
    t_turb: float = 0.5
    ramp_limit: float = 0.009
    saturation: float = 10.0
    k_i: float = 0.1
    # secondary control of the neighbor area; zero keeps it passive so the
    # disturbed area's regulation is not masked by cross-area integrators
    k_i_area2: float = 0.0
    t_sync: float = 10.0
    frr_deadband: float = 0.002
    frr_slope: float = 40.0


@dataclass
class AieConfig:
    area_load: float = 100.0  # MW, sets the damping-estimate scale
    d_prime_fraction: float = 0.10  # estimated damping per Hz as load share
    surrogate_enabled: bool = True
    rbf_xi: float = 3000.0
    rbf_d_min: float = 0.007
    rbf_max_samples: int = 24
    mode_direction: int = -1

    @property
    def d_prime(self) -> float:
        return self.area_load * self.d_prime_fraction


@dataclass
class OptimizerConfig:
    alpha: float = 0.5
    beta: float = 0.75
    gamma: float = 10.0
    kappa0: float = 0.3
    eps0: float = 0.3
    t_max: int = 900
    f_threshold: float = 0.05


@dataclass
class ScenarioConfig:
    name: str = "case_study_1"
    kind: str = "step"  # step | fluctuation
    signal: str = "AIE"  # AIE | ACE
    bess_enabled: bool = True
    duration: float = 300.0  # s
    tau: float = 0.1  # control interval, s
    dt_inner: float = 0.01  # plant integration step, s
    seed: int = 0
    step_time: float = 10.0
    step_mw: float = 5.0
    fluct_hold: float = 60.0
    fluct_low: float = -6.0
    fluct_high: float = 6.0
    topology_edges: tuple | None = None
    fleet: FleetConfig = field(default_factory=FleetConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    aie: AieConfig = field(default_factory=AieConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        # the name becomes the stem of every output file, so it must not
        # leave the output directory
        if (type(self.name) is not str or self.name in ("", ".", "..")
                or any(ch in self.name for ch in "/\\\0")):
            raise ConfigError(
                f"name {self.name!r} must be a file name stem: non-empty, "
                "not . or .., without /, \\ or NUL"
            )
        if self.kind not in ("step", "fluctuation"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.signal not in ("AIE", "ACE"):
            raise ConfigError(f"unknown signal mode {self.signal!r}")
        if not all(0 < v < math.inf for v in (
                self.duration, self.tau, self.dt_inner, self.fluct_hold)):
            raise ConfigError(
                "duration, tau, dt_inner, and fluct_hold must be positive"
            )
        if abs(self.inner_steps * self.dt_inner - self.tau) > 1e-9 * self.tau:
            raise ConfigError(
                f"dt_inner {self.dt_inner} does not divide tau {self.tau}"
            )
        if self.intervals < 1:
            raise ConfigError("duration is shorter than one control interval")
        if not -math.inf < self.fluct_low <= self.fluct_high < math.inf:
            raise ConfigError("need finite fluct_low <= fluct_high")
        if not all(map(math.isfinite, (self.step_time, self.step_mw))):
            raise ConfigError("step_time and step_mw must be finite")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not all(type(v) is bool
                   for v in (self.bess_enabled, self.aie.surrogate_enabled)):
            raise ConfigError(
                "bess_enabled and surrogate_enabled must be true or false"
            )
        a = self.aie
        if not (0 < a.area_load < math.inf
                and 0 <= a.d_prime_fraction < math.inf):
            raise ConfigError(
                "need finite area_load > 0 and d_prime_fraction >= 0"
            )
        f = self.fleet
        for s in f.initial_soc:
            if not f.soc_min <= s <= f.soc_max:
                raise ConfigError(
                    f"initial SoC {s} outside [{f.soc_min}, {f.soc_max}]"
                )
        if a.mode_direction not in (-1, 1):
            raise ConfigError("mode_direction must be +1 or -1")
        # the checks the fleet, plant, surrogate, graph and schedule make
        try:
            build_fleet(f, self.tau)
            self.areas()
            self.surrogate()
            self.coordinator()
        except ValueError as err:
            raise ConfigError(str(err)) from err

    @property
    def inner_steps(self) -> int:
        """Plant integration steps per control interval."""
        return int(round(self.tau / self.dt_inner))

    @property
    def intervals(self) -> int:
        """Control intervals in the run, one trace row each."""
        return int(round(self.duration / self.tau))

    def topology(self) -> Topology:
        n = self.fleet.n
        if self.topology_edges is None:
            return default_topology(n)
        return Topology(n, tuple(tuple(e) for e in self.topology_edges))

    def areas(self) -> tuple:
        """The disturbed area, carrying the responsive-load droop, and its
        neighbor."""
        g = self.grid
        kw = dict(
            inertia=g.inertia, damping=g.damping, inv_droops=g.inv_droops,
            t_gov=g.t_gov, t_turb=g.t_turb, ramp_limit=g.ramp_limit,
            saturation=g.saturation, k_i=g.k_i, t_sync=g.t_sync,
        )
        return (
            AreaParams(frr=SectionalDroop(g.frr_deadband, g.frr_slope), **kw),
            AreaParams(**{**kw, "k_i": g.k_i_area2}),
        )

    def surrogate(self) -> RbfSurrogate:
        a = self.aie
        return RbfSurrogate(xi=a.rbf_xi, d_min=a.rbf_d_min,
                            max_samples=a.rbf_max_samples)

    def coordinator(self) -> OrraOptimizer:
        """A fresh distributed optimizer over the configured graph."""
        o = self.optimizer
        schedule = LearningSchedule(
            kappa0=o.kappa0, eps0=o.eps0, alpha=o.alpha, beta=o.beta,
            t_max=o.t_max, f_threshold=o.f_threshold,
        )
        return OrraOptimizer(build_metropolis_weights(self.topology()),
                             schedule, gamma=o.gamma)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = dict(data)
        nested = {
            "fleet": FleetConfig, "grid": GridConfig, "aie": AieConfig,
            "optimizer": OptimizerConfig,
        }
        kwargs = {}
        for key, value in data.items():
            if key in nested:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key} must be an object")
                sub = nested[key]
                allowed = set(sub.__dataclass_fields__)
                unknown = set(value) - allowed
                if unknown:
                    raise ConfigError(
                        f"unknown {key} fields: {sorted(unknown)}"
                    )
                fixed = {
                    k: tuple(v) if isinstance(v, list) else v
                    for k, v in value.items()
                }
                kwargs[key] = sub(**fixed)
            elif key in cls.__dataclass_fields__:
                if isinstance(value, list):
                    value = tuple(value)
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config field {key!r}")
        try:
            return cls(**kwargs)
        except TypeError as err:
            raise ConfigError(str(err)) from err

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        return cls.from_dict(data)

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def resolve_out_dir(out_dir: str | None) -> str:
    path = out_dir or os.environ.get(OUT_DIR_ENV) or "orra_out"
    os.makedirs(path, exist_ok=True)
    return path


def build_fleet(cfg: FleetConfig, tau: float) -> Fleet:
    theta_a = cfg.per_battery(cfg.theta_a)
    theta_b = cfg.per_battery(cfg.theta_b)
    batteries = []
    for soc, ta, tb in zip(cfg.initial_soc, theta_a, theta_b):
        params = BessParams(
            capacity=cfg.capacity,
            charge_limit=cfg.charge_limit,
            discharge_limit=cfg.discharge_limit,
            eta_c=cfg.eta_c,
            eta_d=cfg.eta_d,
            soc_min=cfg.soc_min,
            soc_max=cfg.soc_max,
            theta_a=ta,
            theta_b=tb,
        )
        batteries.append(Battery(params=params, soc=float(soc)))
    return Fleet(batteries, tau)


class TraceField(NamedTuple):
    """One group of trace columns and the RunResult array it is written from.

    `source` names the array; for the optimizer-log fields that is the
    key `OrraOptimizer.iterate` logs it under. `per` makes one column per
    area or generator, numbered from 1 (`df1`, `p_m_cg1`), or per agent,
    numbered from 0 (`soc_0`). `dtype` is the array's element type; int
    and bool columns are written as integers.
    """

    column: str
    source: str
    per: str = ""  # "" | "area" | "cg" | "agent"
    dtype: type = float


# The trace layout, in file order. The per-agent groups form one block that
# is written agent by agent: aie_0, mode_0, ..., h_0, aie_1, ...
TRACE_SPEC = (
    TraceField("time", "time"),
    TraceField("df", "df", per="area"),
    TraceField("p_tie", "p_tie"),
    TraceField("dist", "dist"),
    TraceField("p_bess", "p_bess"),
    TraceField("p_m_total", "p_m_total"),
    TraceField("p_m_cg", "p_m_cg", per="cg"),
    TraceField("signal_total", "signal_total"),
    TraceField("surrogate_m", "surrogate_m", dtype=int),
    TraceField("aie", "aie_shares", per="agent"),
    TraceField("mode", "modes", per="agent", dtype=int),
    TraceField("d", "d", per="agent"),
    TraceField("c", "c", per="agent"),
    TraceField("soc", "soc", per="agent"),
    TraceField("marg", "marginals", per="agent"),
    TraceField("lam", "lam", per="agent"),
    TraceField("lam_mix", "lam_mixed", per="agent"),
    TraceField("y", "y", per="agent"),
    TraceField("y_mix", "y_mixed", per="agent"),
    TraceField("h", "h", per="agent"),
    TraceField("kappa", "kappa"),
    TraceField("eps", "eps"),
    TraceField("reset", "reset", dtype=bool),
    TraceField("stage", "stage", dtype=int),
    TraceField("t_opt", "t", dtype=int),
    TraceField("dual_bound", "bound"),
    TraceField("f_dist", "f_dist"),
)

# The keys of the optimizer log, in the order `OrraOptimizer.iterate`
# returns them; each is also a RunResult array.
OPTIMIZER_LOG = ("t", "stage", "reset", "kappa", "eps", "lam", "lam_mixed",
                 "y", "y_mixed", "s", "h", "bound")


def _width(f: TraceField, n_agents: int, n_cg: int) -> int:
    return {"": 1, "area": 2, "cg": n_cg, "agent": n_agents}[f.per]


def trace_columns(n_agents: int, n_cg: int) -> tuple:
    """(header, column stem -> its column indices) of a trace."""
    header, where = [], {}

    def add(f, name):
        where.setdefault(f.column, []).append(len(header))
        header.append(name)

    agent_block = [f for f in TRACE_SPEC if f.per == "agent"]
    for f in TRACE_SPEC:
        if f.per == "agent":
            if f is agent_block[0]:
                for i in range(n_agents):
                    for g in agent_block:
                        add(g, f"{g.column}_{i}")
        elif f.per:
            for j in range(_width(f, n_agents, n_cg)):
                add(f, f"{f.column}{j + 1}")
        else:
            add(f, f.column)
    return header, where


class OptimizerLog(Sequence):
    """The optimizer log of a run, read back from its RunResult arrays.

    Item k is the dict `OrraOptimizer.iterate` returned at interval k,
    rebuilt on access (per-agent lists as array copies, scalars as Python
    numbers). Empty when the fleet sits out.
    """

    def __init__(self, result: RunResult):
        self._columns = [(key, getattr(result, key)) for key in OPTIMIZER_LOG]
        self._len = len(result.time) if result.config.bess_enabled else 0

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        rows = range(self._len)[k]
        if isinstance(rows, range):
            return [self[i] for i in rows]
        return {key: col[rows].copy() if col.ndim > 1 else col[rows].item()
                for key, col in self._columns}


class RunResult:
    """One scenario run, recorded in place one control interval per row.

    Each TRACE_SPEC field is an array named by its source (`marginals` is
    the active-coordinate cost slope at the applied u). Beside them: `s`
    (T, n, 2), the optimizer's saddle direction; `interior` (T, n),
    dispatch strictly inside its mode box; `f_oracle` and `u_star`
    (T, n, 2), the reference solution when it is solved; and `infos`, the
    optimizer log as one dict per interval when the fleet takes part.
    """

    def __init__(self, config: ScenarioConfig, fleet: Fleet, surrogate,
                 oracle: bool):
        rows = config.intervals
        n, n_cg = config.fleet.n, len(config.grid.inv_droops)
        self.config, self.fleet, self.surrogate = config, fleet, surrogate
        for f in TRACE_SPEC:
            shape = (rows, _width(f, n, n_cg)) if f.per else rows
            setattr(self, f.source, np.zeros(shape, dtype=f.dtype))
        self.s = np.zeros((rows, n, 2))
        self.interior = np.zeros((rows, n), dtype=bool)
        self.infos = OptimizerLog(self)
        self.trace_path = None
        self.f_oracle = np.zeros(rows) if oracle else None
        self.u_star = np.zeros((rows, n, 2)) if oracle else None
        self.oracle_clamped = 0

    @property
    def stages(self) -> list:
        """(stage_id, start_row, end_row_exclusive) over the optimizer log."""
        if not self.infos:
            return []
        ids = self.stage
        starts = [0] + (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
        ends = starts[1:] + [len(ids)]
        return [(int(ids[lo]), lo, hi) for lo, hi in zip(starts, ends)]


class ScenarioRunner:
    """Drives one configured scenario to completion."""

    def __init__(
        self,
        config: ScenarioConfig,
        oracle_every: bool = False,
        disturbance=None,
    ):
        self.config = config
        self.oracle_every = oracle_every
        if oracle_every and config.bess_enabled and min(
                config.fleet.per_battery(config.fleet.theta_b)) <= 0:
            raise ConfigError(
                "the per-interval reference needs a strictly convex wear "
                "term: every fleet.theta_b must be positive"
            )
        if disturbance is not None:
            # caller-supplied net-load profile, replaces the configured kind
            self.disturbance = disturbance
        n = config.fleet.n
        self.fleet = build_fleet(config.fleet, config.tau)
        self.optimizer = config.coordinator()
        self.areas = config.areas()
        self.droop = self.areas[0].frr
        self.state = zero_state(self.areas)
        self.window = None  # last (hold window, value) of the fluctuation
        sigma = np.full(n, 1.0 / n)
        self.sigma = check_participation(sigma / sigma.sum())
        self.surrogate = (
            config.surrogate()
            if config.signal == "AIE" and config.aie.surrogate_enabled
            else None
        )
        self.u = [(0.0, 0.0)] * n  # (discharge, charge) per agent
        self.p_bess = 0.0  # the fleet's net injection under self.u
        self.agc1 = 0.0
        self.nu_hint = None
        self.result = RunResult(
            config, self.fleet, self.surrogate,
            oracle=oracle_every and config.bess_enabled,
        )

    def disturbance(self, t: float) -> float:
        """Net-load increase in area 1 at time t, MW."""
        cfg = self.config
        if cfg.kind == "step":
            return cfg.step_mw if t >= cfg.step_time else 0.0
        k = int(t // cfg.fluct_hold)  # the profile holds one draw a window
        if self.window is None or self.window[0] != k:
            self.window = (k, scenario_fluctuation(
                t, cfg.seed, cfg.fluct_hold, cfg.fluct_low, cfg.fluct_high
            ))
        return self.window[1]

    def step(self, k: int) -> None:
        """Run control interval k and record it as row k of the result."""
        cfg = self.config
        tau = cfg.tau
        t0 = k * tau
        enabled = cfg.bess_enabled
        rec = self.result

        # apply the pending decision, then run the plant over the interval
        if enabled:
            self.fleet.apply_all(self.u)
        agc2 = compute_ace(-self.state.p_tie, self.areas[1].bias,
                           self.state.df[1])
        dists = [(self.disturbance(t0 + j * cfg.dt_inner), 0.0)
                 for j in range(cfg.inner_steps)]
        self.state = grid_step(
            self.state, (self.p_bess, 0.0), (self.agc1, agc2), dists,
            self.areas, cfg.dt_inner,
        )

        # measure the area signals at the interval boundary
        df1 = self.state.df[0]
        p_tie = self.state.p_tie
        # sequential sums from 0.0, as numpy sums fewer than 8 terms
        du_cg = pm_cg = 0.0
        for u, p in zip(self.state.du_gov[0], self.state.p_m[0]):
            du_cg += u
            pm_cg += p
        if cfg.signal == "AIE":
            shares = aie_shares(self.sigma, p_tie, cfg.aie.d_prime, df1,
                                du_cg, pm_cg)
            if self.surrogate is not None:
                if self.surrogate.infill_decide(df1):
                    # responsive loads report in load convention: an
                    # injection shows up as a negative load deviation
                    self.surrogate.add_sample(
                        df1, -self.droop.response(df1)
                    )
                correction = self.surrogate.evaluate(df1)
                shares = [a + s * correction
                          for a, s in zip(shares, self.sigma)]
                rec.surrogate_m[k] = self.surrogate.m
            agc1 = 0.0  # sequential, like the generator sums above
            for a in shares:
                agc1 += a
            self.agc1 = agc1
        else:
            ace = compute_ace(p_tie, self.areas[0].bias, df1)
            shares = [s * ace for s in self.sigma]
            self.agc1 = float(ace)

        # row k describes the interval starting at this boundary: the state
        # just sampled plus the dispatch that covers [t, t+tau); a fleet
        # that sits out leaves its columns at zero
        rec.time[k] = t0 + tau
        rec.df[k] = self.state.df
        rec.p_tie[k] = p_tie
        rec.dist[k] = self.disturbance(t0 + tau)
        rec.p_m_total[k] = pm_cg
        rec.p_m_cg[k] = self.state.p_m[0]
        rec.signal_total[k] = self.agc1
        rec.aie_shares[k] = shares
        rec.soc[k] = self.fleet.soc
        if not enabled:
            return

        modes, boxes, models = self.fleet.plan(shares, cfg.aie.mode_direction)
        grads = [m.gradient(d, c) for m, (d, c) in zip(models, self.u)]
        u_next, info = self.optimizer.iterate(
            self.u, grads, shares, df1, boxes, modes
        )
        # agent by agent: the cost, the slope along the active coordinate,
        # whether the dispatch sits strictly inside its box, and the net
        # injection
        f_dist = p_bess = 0.0
        marginals, interior = [], []
        for m, (d, c), mode, (lo, hi) in zip(models, u_next, modes, boxes):
            f_dist += m.value(d, c)
            g_d, g_c = m.gradient(d, c)
            active = d if mode == 1 else c
            marginals.append(g_d if mode == 1 else g_c)
            interior.append(lo + 1e-9 < active < hi - 1e-9)
            p_bess += d - c
        rec.f_dist[k] = f_dist
        rec.marginals[k] = marginals
        rec.interior[k] = interior
        rec.modes[k] = modes
        rec.d[k], rec.c[k] = zip(*u_next)
        rec.p_bess[k] = p_bess
        for key in OPTIMIZER_LOG:
            getattr(rec, key)[k] = info[key]
        if self.oracle_every:
            sol = centralized_solve(
                models, modes, boxes, -float(np.sum(shares)),
                on_infeasible="clamp", nu_hint=self.nu_hint,
            )
            self.nu_hint = sol.nu
            d_star, c_star = sol.d.tolist(), sol.c.tolist()
            rec.f_oracle[k] = sum(
                m.value(d, c) for m, d, c in zip(models, d_star, c_star)
            )
            rec.u_star[k] = list(zip(d_star, c_star))
            rec.oracle_clamped += int(sol.clamped)
        self.u, self.p_bess = u_next, p_bess

    def run(self, out_dir: str | None = None, write_trace: bool = True):
        rec = self.result
        for k in range(len(rec.time)):
            self.step(k)
        if write_trace:
            rec.trace_path = write_trace_csv(rec, resolve_out_dir(out_dir))
        return rec


def write_trace_csv(result: RunResult, out_dir: str) -> str:
    """Write a run as `<name>.csv` in the layout of TRACE_SPEC."""
    cfg = result.config
    header, where = trace_columns(cfg.fleet.n, len(cfg.grid.inv_droops))
    rows = len(result.time)
    table = np.zeros((rows, len(header)))
    fmt = [""] * len(header)
    for f in TRACE_SPEC:
        cols = where[f.column]
        for j in cols:
            fmt[j] = "%.12g" if f.dtype is float else "%d"
        table[:, cols] = np.reshape(getattr(result, f.source),
                                    (rows, len(cols)))
    path = os.path.join(out_dir, f"{cfg.name}.csv")
    with open(path, "w") as fh:
        fh.write(f"# schema: {TRACE_SCHEMA}\n" + ",".join(header) + "\n")
        np.savetxt(fh, table, fmt=fmt, delimiter=",")
    return path


def verify_trace(
    path: str, soc_min: float = 0.2, soc_max: float = 0.8
) -> dict:
    """Check a written trace against the row-level invariants.

    Validates that the file parses as numbers, the schema line, the column
    layout, uniform time steps, finite values, SoC bounds, one-sided
    battery dispatch, mode codes, and the logged multiplier-bound column.
    Returns a report dict with `passed` plus one entry per check.
    """
    report = {"trace": path, "rows": 0, "checks": {}, "passed": True}

    def record(name, ok, detail=""):
        report["checks"][name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            report["passed"] = False

    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if len(lines) < 2:
            raise ValueError("no schema and header lines")
        header = lines[1].split(",")
        data = np.array(
            [[float(v) for v in line.split(",")] for line in lines[2:]]
        )
        if data.size and data.shape[1] != len(header):
            raise ValueError(f"{data.shape[1]} cells a row, {len(header)} names")
    except ValueError as err:
        record("parse", False, str(err))
        return report
    record("parse", True)
    report["rows"] = len(data)
    record("schema", lines[0] == f"# schema: {TRACE_SCHEMA}", lines[0])
    n = sum(1 for c in header if c.startswith("soc_"))
    n_cg = sum(1 for c in header if c.startswith("p_m_cg"))
    expected, where = trace_columns(n, n_cg)
    record(
        "columns",
        header == expected,
        f"{len(header)} columns, {n} agents, {n_cg} generators",
    )
    if not report["checks"]["columns"]["ok"] or not len(data):
        record("rows_present", bool(len(data)))
        return report
    col = lambda stem: data[:, where[stem]]
    record("finite", bool(np.isfinite(data).all()))
    t = col("time")[:, 0]
    steps = np.diff(t)
    record(
        "uniform_time",
        bool(len(t) == 1 or (steps > 0).all()
             and np.allclose(steps, steps[0], rtol=0, atol=1e-9)),
        f"step {steps[0]:.6g} s" if len(t) > 1 else "single row",
    )
    soc = col("soc")
    bad = np.nonzero((soc < soc_min - 1e-9) | (soc > soc_max + 1e-9))
    record(
        "soc_bounds",
        bad[0].size == 0,
        "" if bad[0].size == 0 else f"first violation at row {bad[0][0]}",
    )
    both = np.nonzero((col("d") > 0) & (col("c") > 0))
    record(
        "one_sided_dispatch",
        both[0].size == 0,
        "" if both[0].size == 0 else f"first violation at row {both[0][0]}",
    )
    record("mode_codes", bool(np.isin(col("mode"), (0.0, 1.0)).all()))
    lam = np.abs(col("lam")).max(axis=1)
    bound = col("dual_bound")[:, 0]
    active = bound > 0
    record(
        "multiplier_bound",
        bool((lam[active] <= bound[active] + 1e-9).all()),
        f"{int(active.sum())} bounded rows",
    )
    return report


def run_scenario(
    config: ScenarioConfig, out_dir: str | None = None,
    oracle_every: bool = False,
) -> RunResult:
    """Run one scenario end to end and write its trace file."""
    runner = ScenarioRunner(config, oracle_every=oracle_every)
    return runner.run(out_dir=out_dir)
