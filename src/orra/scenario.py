"""Closed-loop scenario runner: plant, signal chain, fleet, coordinator.

Each control interval applies the pending fleet decision, integrates the
grid over the interval, measures the area signals (injection error with
the learned responsive-load correction, or the classic control error),
refreshes modes, feasible boxes, and wear-cost models, then advances the
distributed optimizer one iteration to produce the next decision. Every
interval is logged as one flat trace row.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .aie import (
    AieInputs,
    RbfSurrogate,
    compute_ace,
    compute_aie_bus,
)
from .bess import Battery, BessParams, BessState, Fleet
from .comm_graph import Topology, build_metropolis_weights, default_topology
from .grid import (
    AreaParams,
    SectionalDroop,
    frr_response,
    grid_step,
    scenario_fluctuation,
    scenario_step_load,
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
        if self.kind not in ("step", "fluctuation"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.signal not in ("AIE", "ACE"):
            raise ConfigError(f"unknown signal mode {self.signal!r}")
        if self.duration <= 0 or self.tau <= 0 or self.dt_inner <= 0:
            raise ConfigError("duration, tau, and dt_inner must be positive")
        if self.dt_inner > self.tau:
            raise ConfigError("dt_inner must not exceed the control interval")
        f = self.fleet
        for s in f.initial_soc:
            if not f.soc_min <= s <= f.soc_max:
                raise ConfigError(
                    f"initial SoC {s} outside [{f.soc_min}, {f.soc_max}]"
                )
        if self.aie.mode_direction not in (-1, 1):
            raise ConfigError("mode_direction must be +1 or -1")
        try:
            self.learning_schedule()
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def learning_schedule(self) -> LearningSchedule:
        o = self.optimizer
        return LearningSchedule(
            kappa0=o.kappa0, eps0=o.eps0, alpha=o.alpha, beta=o.beta,
            t_max=o.t_max, f_threshold=o.f_threshold,
        )

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


def build_fleet(cfg: FleetConfig) -> Fleet:
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
        batteries.append(Battery(params=params, state=BessState(soc=float(soc))))
    return Fleet(batteries)


@dataclass
class RunResult:
    """In-memory view of one scenario run plus its trace location."""

    config: ScenarioConfig
    trace_path: str | None
    time: np.ndarray
    df: np.ndarray  # (T, 2)
    p_tie: np.ndarray
    dist: np.ndarray
    p_bess: np.ndarray
    p_m_total: np.ndarray
    p_m_cg: np.ndarray  # (T, n_cg) area-1 generators
    signal_total: np.ndarray
    aie_shares: np.ndarray  # (T, n)
    d: np.ndarray  # (T, n)
    c: np.ndarray
    soc: np.ndarray
    modes: np.ndarray
    marginals: np.ndarray  # active-coordinate cost slope at the applied u
    interior: np.ndarray  # (T, n) bool, strictly inside the mode box
    f_dist: np.ndarray
    infos: list
    fleet: Fleet
    surrogate: RbfSurrogate | None
    f_oracle: np.ndarray | None = None
    u_star: np.ndarray | None = None
    oracle_clamped: int = 0

    @property
    def stages(self) -> list:
        """(stage_id, start_row, end_row_exclusive) over optimizer logs."""
        if not self.infos:
            return []
        ids = [info["stage"] for info in self.infos]
        out = []
        start = 0
        for k in range(1, len(ids)):
            if ids[k] != ids[k - 1]:
                out.append((ids[k - 1], start, k))
                start = k
        out.append((ids[-1], start, len(ids)))
        return out


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
        if disturbance is not None:
            # caller-supplied net-load profile, replaces the configured kind
            self.disturbance = disturbance
        n = config.fleet.n
        self.n = n
        try:
            self.fleet = build_fleet(config.fleet)
            if config.topology_edges is None:
                topo = default_topology(n)
            else:
                topo = Topology(
                    n, tuple(tuple(e) for e in config.topology_edges)
                )
            self.weights = build_metropolis_weights(topo)
        except ValueError as err:  # battery parameters or TopologyError
            raise ConfigError(str(err)) from err
        self.optimizer = OrraOptimizer(
            self.weights, config.learning_schedule(), gamma=config.optimizer.gamma
        )
        g = config.grid
        self.droop = SectionalDroop(g.frr_deadband, g.frr_slope)
        area_kw = dict(
            inertia=g.inertia, damping=g.damping, inv_droops=g.inv_droops,
            t_gov=g.t_gov, t_turb=g.t_turb, ramp_limit=g.ramp_limit,
            saturation=g.saturation, k_i=g.k_i, t_sync=g.t_sync,
        )
        try:
            self.areas = (
                AreaParams(frr=self.droop, **area_kw),
                AreaParams(**{**area_kw, "k_i": g.k_i_area2}),
            )
        except ValueError as err:
            raise ConfigError(str(err)) from err
        self.state = zero_state(self.areas)
        self.sigma = np.full(n, 1.0 / n)
        self.sigma /= self.sigma.sum()
        self.surrogate = (
            RbfSurrogate(
                xi=config.aie.rbf_xi,
                d_min=config.aie.rbf_d_min,
                max_samples=config.aie.rbf_max_samples,
            )
            if config.signal == "AIE" and config.aie.surrogate_enabled
            else None
        )
        self.u = np.zeros((n, 2))
        self.agc1 = 0.0
        self.nu_hint = None
        self.rows = []

    def disturbance(self, t: float) -> float:
        cfg = self.config
        if cfg.kind == "step":
            return cfg.step_mw if t >= cfg.step_time else 0.0
        return scenario_fluctuation(
            t, cfg.seed, cfg.fluct_hold, cfg.fluct_low, cfg.fluct_high
        )

    def step(self, k: int) -> dict:
        cfg = self.config
        tau = cfg.tau
        t0 = k * tau
        enabled = cfg.bess_enabled

        # apply the pending decision, then run the plant over the interval
        if enabled:
            self.fleet.apply_all(self.u[:, 0], self.u[:, 1], tau)
        p_bess = float((self.u[:, 0] - self.u[:, 1]).sum()) if enabled else 0.0
        inner = int(round(tau / cfg.dt_inner))
        agc2 = compute_ace(-self.state.p_tie, self.areas[1].bias,
                           self.state.df[1])
        for j in range(inner):
            dist = self.disturbance(t0 + j * cfg.dt_inner)
            self.state = grid_step(
                self.state, np.array([p_bess, 0.0]),
                np.array([self.agc1, agc2]), np.array([dist, 0.0]),
                self.areas, cfg.dt_inner,
            )

        # measure the area signals at the interval boundary
        df1 = float(self.state.df[0])
        p_tie = float(self.state.p_tie)
        du_cg = float(self.state.du_gov[0].sum())
        pm_cg = float(self.state.p_m[0].sum())
        if cfg.signal == "AIE":
            inputs = AieInputs(
                dPtie=p_tie, df=df1, D_prime=cfg.aie.d_prime,
                sigma=self.sigma, du_gov=self.sigma * du_cg,
                dPm=self.sigma * pm_cg,
            )
            shares = np.array(
                [compute_aie_bus(inputs, i) for i in range(self.n)]
            )
            if self.surrogate is not None:
                if self.surrogate.infill_decide(df1):
                    # responsive loads report in load convention: an
                    # injection shows up as a negative load deviation
                    self.surrogate.add_sample(
                        df1, -frr_response(df1, self.droop)
                    )
                shares = shares + self.sigma * self.surrogate.evaluate(df1)
            self.agc1 = float(shares.sum())
        else:
            ace = compute_ace(p_tie, self.areas[0].bias, df1)
            shares = self.sigma * ace
            self.agc1 = float(ace)

        # the row describes the interval starting at this boundary: the
        # state just sampled plus the dispatch that covers [t, t+tau)
        row = {
            "time": t0 + tau,
            "df1": df1,
            "df2": float(self.state.df[1]),
            "p_tie": p_tie,
            "dist": self.disturbance(t0 + tau),
            "p_bess": 0.0,
            "p_m_total": pm_cg,
            "p_m_cg": self.state.p_m[0].copy(),
            "signal_total": self.agc1,
            "surrogate_m": self.surrogate.m if self.surrogate else 0,
            "aie": shares.copy(),
            "soc": self.fleet.soc,
        }

        if enabled:
            self.fleet.set_modes(shares, cfg.aie.mode_direction)
            modes = self.fleet.modes
            intervals = np.array(self.fleet.feasible_intervals(tau))
            models = self.fleet.cost_models(tau)
            grads = np.array(
                [
                    m.gradient(di, ci)
                    for m, di, ci in zip(models, self.u[:, 0], self.u[:, 1])
                ]
            )
            u_next, info = self.optimizer.iterate(
                self.u, grads, shares, df1, intervals, modes
            )
            d_new, c_new = u_next[:, 0], u_next[:, 1]
            f_dist = float(
                sum(m.value(di, ci) for m, di, ci in zip(models, d_new, c_new))
            )
            grads_new = np.array(
                [m.gradient(di, ci) for m, di, ci in zip(models, d_new, c_new)]
            )
            marg = np.array(
                [g[0] if mo == 1 else g[1] for g, mo in zip(grads_new, modes)]
            )
            active = np.where(modes == 1, d_new, c_new)
            interior = (active > intervals[:, 0] + 1e-9) & (
                active < intervals[:, 1] - 1e-9
            )
            row.update(
                modes=modes.copy(), f_dist=f_dist, marg=marg,
                interior=interior, d=d_new.copy(), c=c_new.copy(),
                p_bess=float((d_new - c_new).sum()), info=info,
            )
            if self.oracle_every:
                sol = centralized_solve(
                    models, modes, intervals, -float(shares.sum()),
                    on_infeasible="clamp", nu_hint=self.nu_hint,
                )
                self.nu_hint = sol.nu
                row["f_oracle"] = float(
                    sum(
                        m.value(di, ci)
                        for m, di, ci in zip(models, sol.d, sol.c)
                    )
                )
                row["u_star"] = np.stack([sol.d, sol.c], axis=1)
                row["oracle_clamped"] = bool(sol.clamped)
            self.u = u_next
        else:
            row.update(
                modes=np.zeros(self.n, dtype=int),
                f_dist=0.0,
                marg=np.zeros(self.n),
                interior=np.zeros(self.n, dtype=bool),
                d=np.zeros(self.n),
                c=np.zeros(self.n),
            )
        self.rows.append(row)
        return row

    def run(self, out_dir: str | None = None, write_trace: bool = True):
        n_intervals = int(round(self.config.duration / self.config.tau))
        for k in range(n_intervals):
            self.step(k)
        trace_path = None
        if write_trace:
            trace_path = write_trace_csv(
                self.rows, self.config, resolve_out_dir(out_dir)
            )
        return self._result(trace_path)

    def _result(self, trace_path) -> RunResult:
        rows = self.rows
        stack = lambda key: np.array([r[key] for r in rows])
        infos = [r["info"] for r in rows if "info" in r]
        has_oracle = self.oracle_every and rows and "f_oracle" in rows[0]
        return RunResult(
            config=self.config,
            trace_path=trace_path,
            time=stack("time"),
            df=np.stack([stack("df1"), stack("df2")], axis=1),
            p_tie=stack("p_tie"),
            dist=stack("dist"),
            p_bess=stack("p_bess"),
            p_m_total=stack("p_m_total"),
            p_m_cg=stack("p_m_cg"),
            signal_total=stack("signal_total"),
            aie_shares=stack("aie"),
            d=stack("d"),
            c=stack("c"),
            soc=stack("soc"),
            modes=stack("modes"),
            marginals=stack("marg"),
            interior=stack("interior"),
            f_dist=stack("f_dist"),
            infos=infos,
            fleet=self.fleet,
            surrogate=self.surrogate,
            f_oracle=stack("f_oracle") if has_oracle else None,
            u_star=stack("u_star") if has_oracle else None,
            oracle_clamped=(
                int(sum(r["oracle_clamped"] for r in rows)) if has_oracle else 0
            ),
        )


def trace_columns(n_agents: int, n_cg: int) -> list:
    cols = [
        "time", "df1", "df2", "p_tie", "dist", "p_bess", "p_m_total",
    ]
    cols += [f"p_m_cg{j + 1}" for j in range(n_cg)]
    cols += ["signal_total", "surrogate_m"]
    for i in range(n_agents):
        cols += [
            f"aie_{i}", f"mode_{i}", f"d_{i}", f"c_{i}", f"soc_{i}",
            f"marg_{i}", f"lam_{i}", f"lam_mix_{i}", f"y_{i}", f"y_mix_{i}",
            f"h_{i}",
        ]
    cols += [
        "kappa", "eps", "reset", "stage", "t_opt", "dual_bound", "f_dist",
    ]
    return cols


def write_trace_csv(rows, config: ScenarioConfig, out_dir: str) -> str:
    n = config.fleet.n
    n_cg = len(config.grid.inv_droops)
    path = os.path.join(out_dir, f"{config.name}.csv")
    cols = trace_columns(n, n_cg)
    fmt = lambda v: f"{v:.12g}"
    with open(path, "w") as fh:
        fh.write(f"# schema: {TRACE_SCHEMA}\n")
        fh.write(",".join(cols) + "\n")
        zero_info = {
            "kappa": 0.0, "eps": 0.0, "reset": False, "stage": 0, "t": 0,
            "bound": 0.0, "lam": np.zeros(n), "lam_mixed": np.zeros(n),
            "y": np.zeros(n), "y_mixed": np.zeros(n), "h": np.zeros(n),
        }
        for row in rows:
            info = row.get("info", zero_info)
            vals = [
                fmt(row["time"]), fmt(row["df1"]), fmt(row["df2"]),
                fmt(row["p_tie"]), fmt(row["dist"]), fmt(row["p_bess"]),
                fmt(row["p_m_total"]),
            ]
            vals += [fmt(v) for v in row["p_m_cg"]]
            vals += [fmt(row["signal_total"]), str(row["surrogate_m"])]
            for i in range(n):
                vals += [
                    fmt(row["aie"][i]), str(int(row["modes"][i])),
                    fmt(row["d"][i]), fmt(row["c"][i]), fmt(row["soc"][i]),
                    fmt(row["marg"][i]), fmt(info["lam"][i]),
                    fmt(info["lam_mixed"][i]), fmt(info["y"][i]),
                    fmt(info["y_mixed"][i]), fmt(info["h"][i]),
                ]
            vals += [
                fmt(info["kappa"]), fmt(info["eps"]),
                str(int(bool(info["reset"]))), str(info["stage"]),
                str(info["t"]), fmt(info["bound"]), fmt(row["f_dist"]),
            ]
            fh.write(",".join(vals) + "\n")
    return path


def run_scenario(
    config: ScenarioConfig, out_dir: str | None = None,
    oracle_every: bool = False,
) -> RunResult:
    """Run one scenario end to end and write its trace file."""
    runner = ScenarioRunner(config, oracle_every=oracle_every)
    return runner.run(out_dir=out_dir)
