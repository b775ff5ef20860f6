"""Closed-loop scenario runner: plant, signal chain, fleet, coordinator.

Each control interval integrates the grid over the interval under the
pending fleet decision, measures the area signals (injection error with
the learned responsive-load correction, or the classic control error),
books the pending decision on the batteries and refreshes their modes,
feasible boxes, and wear-cost models in one pass, then advances the
distributed optimizer one iteration to produce the next decision. Every
interval is recorded as one row of one preallocated float table, the
RunResult's, whose leading columns are the trace file's; one column spec
(TRACE_SPEC) lays out that table, names the arrays that view it, and
tells the trace verifier where to look. The trace is written straight
from the table.
"""
from __future__ import annotations

import json
import mmap
import os
import sys
import warnings
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from .aie import RbfSurrogate, aie_shares, compute_ace
from .bess import Fleet, check_soc_box
from .comm_graph import default_edges, metropolis_weights
from .grid import Plant, grid_step, responsive_load, scenario_fluctuation
from .optimizer import OrraOptimizer
from .oracle import centralized_solve

TRACE_SCHEMA = "orra-trace-v1"
# relative tolerance of a trace total against its printed parts (verify_trace)
TRACE_RTOL = 1e-11
OUT_DIR_ENV = "ORRA_OUT_DIR"
# plant steps per control interval: each interval lists the load of every
# step and advances the plant through them one by one, about 0.8-1.1 us a
# step with alike units and 1.9-3.0 us with three distinct droops on a
# 2-vCPU VM, so 1000 (the shipped configs use 10) already makes a 300 s run
# spend about 3 s in the plant, or 6-9 s with distinct droops
MAX_INNER_STEPS = 1000


class ConfigError(ValueError):
    """Scenario configuration failed validation."""


class Domain(NamedTuple):
    """The values a config leaf may take: a test, and the phrase that
    names them in the error a value outside them raises."""

    test: Callable[[object], bool]
    phrase: str


def _number(test, phrase: str) -> Domain:
    # bool is an int subclass: true must not pass as 1; nor may an int too
    # large for a float
    return Domain(lambda x: isinstance(x, (int, float))
                  and not isinstance(x, bool)
                  and abs(x) <= sys.float_info.max and test(x), phrase)


POSITIVE = _number(lambda x: x > 0, "positive and finite")
NONNEGATIVE = _number(lambda x: x >= 0, "nonnegative and finite")
FINITE = _number(lambda x: True, "finite")
FRACTION = _number(lambda x: 0 < x <= 1, "in (0, 1]")
UNIT = _number(lambda x: 0 <= x <= 1, "in [0, 1]")
BOOLEAN = Domain(lambda x: type(x) is bool, "true or false")


def integer(k: int) -> Domain:
    return Domain(lambda x: type(x) is int and x >= k,
                  f"an integer of at least {k}")


def choice(*options) -> Domain:
    return Domain(lambda x: any(type(x) is type(o) and x == o
                                for o in options),
                  "one of " + ", ".join(map(json.dumps, options)))


# the name becomes the stem of every output file, so it must not leave the
# output directory
STEM = Domain(
    lambda x: (type(x) is str and x not in ("", ".", "..")
               and not any(ch in x for ch in "/\\\0")),
    "a file name stem: non-empty, not . or .., without /, \\ or NUL",
)
# vertex range and connectivity depend on the fleet size, checked later
EDGES = Domain(
    lambda x: x is None or isinstance(x, (list, tuple)) and all(
        isinstance(e, (list, tuple)) and len(e) == 2
        and all(type(v) is int for v in e) for e in x),
    "null or a list of [i, j] pairs of integer vertex ids",
)


def listed(domain: Domain, or_one: bool = False) -> Domain:
    """A non-empty list whose every item lies in `domain`; with `or_one`,
    a single such value as well."""
    test, phrase = domain
    return Domain(
        lambda x: (bool(x) and all(map(test, x))
                   if isinstance(x, (list, tuple)) else or_one and test(x)),
        f"{phrase}, or a non-empty list of such numbers" if or_one
        else f"a non-empty list of numbers each {phrase}",
    )


def leaf(default, domain: Domain):
    """A config field with its default and its domain."""
    return field(default=default, metadata={"domain": domain})


def check_domains(obj, prefix: str = "") -> None:
    """Raise ConfigError at the first leaf of `obj`, a config or one of
    its sections, whose value lies outside its domain."""
    for f in fields(obj):
        name, value = prefix + f.name, getattr(obj, f.name)
        if "domain" not in f.metadata:  # a section
            check_domains(value, f"{name}.")
        elif not f.metadata["domain"].test(value):
            raise ConfigError(
                f"{name} must be {f.metadata['domain'].phrase}, "
                f"got {json.dumps(value, default=repr)}"
            )


@dataclass
class FleetConfig:
    initial_soc: tuple = leaf((0.35, 0.45, 0.5, 0.55, 0.65), listed(UNIT))
    capacity: float = leaf(2.0, POSITIVE)  # MWh
    discharge_limit: float = leaf(1.0, NONNEGATIVE)  # MW
    charge_limit: float = leaf(1.0, NONNEGATIVE)  # MW
    eta_c: float = leaf(0.95, FRACTION)
    eta_d: float = leaf(0.95, FRACTION)
    soc_min: float = leaf(0.2, UNIT)
    soc_max: float = leaf(0.8, UNIT)
    theta_a: tuple | float = leaf(1000.0, listed(NONNEGATIVE, True))
    theta_b: tuple | float = leaf(0.1, listed(NONNEGATIVE, True))

    @property
    def n(self) -> int:
        return len(self.initial_soc)

    def per_battery(self, value) -> tuple:
        """One float per battery from a number or, checked at load to
        match the fleet size, a list."""
        if isinstance(value, (int, float)):
            return (float(value),) * self.n
        return tuple(float(v) for v in value)


@dataclass
class GridConfig:
    inertia: float = leaf(10.0, POSITIVE)
    damping: float = leaf(1.0, POSITIVE)
    inv_droops: tuple = leaf((20.0, 20.0, 20.0), listed(POSITIVE))
    t_gov: float = leaf(0.2, POSITIVE)
    t_turb: float = leaf(0.5, POSITIVE)
    ramp_limit: float = leaf(0.009, POSITIVE)
    saturation: float = leaf(10.0, POSITIVE)
    k_i: float = leaf(0.1, NONNEGATIVE)
    # secondary control of the neighbor area; zero keeps it passive so the
    # disturbed area's regulation is not masked by cross-area integrators
    k_i_area2: float = leaf(0.0, NONNEGATIVE)
    t_sync: float = leaf(10.0, POSITIVE)
    # area 1's frequency-responsive loads, a sectional droop
    frr_deadband: float = leaf(0.002, NONNEGATIVE)
    frr_slope: float = leaf(40.0, NONNEGATIVE)

    @property
    def bias(self) -> float:
        """Textbook frequency-bias coefficient D + sum of droop slopes."""
        return self.damping + float(sum(self.inv_droops))


@dataclass
class AieConfig:
    area_load: float = leaf(100.0, POSITIVE)  # MW, damping-estimate scale
    # estimated damping per Hz as load share
    d_prime_fraction: float = leaf(0.10, NONNEGATIVE)
    rbf_xi: float = leaf(3000.0, POSITIVE)
    rbf_d_min: float = leaf(0.007, POSITIVE)
    # eviction keeps the two boundary samples, so a cap needs a third slot
    rbf_max_samples: int = leaf(24, integer(3))

    @property
    def d_prime(self) -> float:
        return self.area_load * self.d_prime_fraction


@dataclass
class OptimizerConfig:
    alpha: float = leaf(0.5, FRACTION)
    beta: float = leaf(0.75, FRACTION)
    gamma: float = leaf(10.0, POSITIVE)
    kappa0: float = leaf(0.3, POSITIVE)
    eps0: float = leaf(0.3, FRACTION)
    t_max: int = leaf(900, integer(1))  # whole intervals per stage
    f_threshold: float = leaf(0.05, POSITIVE)


@dataclass
class ScenarioConfig:
    name: str = leaf("case_study_1", STEM)
    kind: str = leaf("step", choice("step", "fluctuation"))
    signal: str = leaf("AIE", choice("AIE", "ACE"))
    bess_enabled: bool = leaf(True, BOOLEAN)
    duration: float = leaf(300.0, POSITIVE)  # s
    tau: float = leaf(0.1, POSITIVE)  # control interval, s
    dt_inner: float = leaf(0.01, POSITIVE)  # plant integration step, s
    seed: int = leaf(0, integer(0))
    step_time: float = leaf(10.0, FINITE)
    step_mw: float = leaf(5.0, FINITE)
    fluct_hold: float = leaf(60.0, POSITIVE)
    fluct_low: float = leaf(-6.0, FINITE)
    fluct_high: float = leaf(6.0, FINITE)
    topology_edges: tuple | None = leaf(None, EDGES)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    aie: AieConfig = field(default_factory=AieConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        check_domains(self)
        # the counts below round these ratios, which must be finite and,
        # for the plant steps, round to at most MAX_INNER_STEPS
        if not self.tau / self.dt_inner < MAX_INNER_STEPS + 0.5:
            raise ConfigError(
                f"dt_inner {self.dt_inner} splits each control interval, "
                f"tau {self.tau}, into more than {MAX_INNER_STEPS} plant steps"
            )
        if not self.duration / self.tau <= sys.float_info.max:
            raise ConfigError(
                f"duration {self.duration} holds more control intervals of "
                f"tau {self.tau} than a float can count"
            )
        if abs(self.inner_steps * self.dt_inner - self.tau) > 1e-9 * self.tau:
            raise ConfigError(
                f"dt_inner {self.dt_inner} does not divide tau {self.tau}"
            )
        # the hold window of time t is t // fluct_hold, for t up to the
        # duration and a rounding past it; half a float's range leaves room
        if not self.duration / self.fluct_hold <= sys.float_info.max / 2:
            raise ConfigError(
                f"fluct_hold {self.fluct_hold} splits duration "
                f"{self.duration} into more hold windows than a float can "
                "count"
            )
        if self.intervals < 1:
            raise ConfigError(f"duration {self.duration} is under one "
                              f"control interval, tau {self.tau}")
        # a run is whole intervals: a remainder would be rounded away
        whole = self.intervals * self.tau
        if abs(whole - self.duration) > 1e-9 * self.duration:
            raise ConfigError(
                f"duration {self.duration} is not a whole number of control "
                f"intervals, tau {self.tau}"
            )
        span = float(self.fluct_high) - float(self.fluct_low)  # as drawn
        if not 0.0 <= span <= sys.float_info.max:
            raise ConfigError(
                f"need fluct_low {self.fluct_low} <= fluct_high "
                f"{self.fluct_high}, with a span a float can hold"
            )
        if not abs(self.aie.d_prime) <= sys.float_info.max:
            raise ConfigError(
                f"aie.area_load {self.aie.area_load} times "
                f"aie.d_prime_fraction {self.aie.d_prime_fraction}, the "
                "damping estimate d_prime, is past a float's range"
            )
        f = self.fleet
        for name in ("theta_a", "theta_b"):
            value = getattr(f, name)
            if isinstance(value, (list, tuple)) and len(value) != f.n:
                raise ConfigError(
                    f"fleet.{name} lists {len(value)} per-battery values "
                    f"for a fleet of {f.n}"
                )
        for s in f.initial_soc:
            if not f.soc_min <= s <= f.soc_max:
                raise ConfigError(f"fleet.initial_soc {s} outside [soc_min, "
                                  f"soc_max] = [{f.soc_min}, {f.soc_max}]")
        # cross-field checks of the SoC box, surrogate, graph and schedule
        try:
            check_soc_box(f.soc_min, f.soc_max)
            RbfSurrogate(self.aie)
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

    def coordinator(self) -> OrraOptimizer:
        """A fresh distributed optimizer over the configured graph."""
        n, edges = self.fleet.n, self.topology_edges
        return OrraOptimizer(
            metropolis_weights(n, default_edges(n) if edges is None else edges),
            self.optimizer,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be an object")
        # the sections are the fields without a domain
        nested = {f.name: f.default_factory for f in fields(cls)
                  if "domain" not in f.metadata}
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
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        return cls.from_dict(data)


def resolve_out_dir(out_dir: str | None) -> str:
    path = out_dir or os.environ.get(OUT_DIR_ENV) or "orra_out"
    os.makedirs(path, exist_ok=True)
    return path


class TraceField(NamedTuple):
    """One group of trace columns and the RunResult array it is written from.

    `source` names the array; for the optimizer-log fields that is the
    key `OrraOptimizer.iterate` logs it under. `per` makes one column per
    area or generator, numbered from 1 (`df1`, `p_m_cg1`), or per agent,
    numbered from 0 (`soc_0`). Int and bool fields are held as
    whole-number floats, which the trace prints as integers.
    """

    column: str
    source: str
    per: str = ""  # "" | "area" | "cg" | "agent"


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
    TraceField("surrogate_m", "surrogate_m"),
    TraceField("aie", "aie_shares", per="agent"),
    TraceField("mode", "modes", per="agent"),
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
    TraceField("reset", "reset"),
    TraceField("stage", "stage"),
    TraceField("t_opt", "t"),
    TraceField("dual_bound", "bound"),
    TraceField("f_dist", "f_dist"),
)

# The keys of the optimizer log, in the order `OrraOptimizer.iterate`
# returns them; each is also a RunResult array.
OPTIMIZER_LOG = ("t", "stage", "reset", "kappa", "eps", "lam", "lam_mixed",
                 "y", "y_mixed", "s", "h", "bound", "p_bess", "f_dist")


def trace_columns(n_agents: int, n_cg: int) -> tuple:
    """(header, column stem -> the slice of its column indices) of a trace."""
    header, where = [], {}
    agents = [f.column for f in TRACE_SPEC if f.per == "agent"]
    for f in TRACE_SPEC:
        if f.per == "agent":
            if f.column == agents[0]:
                base = len(header)
                header += [f"{c}_{i}" for i in range(n_agents) for c in agents]
            where[f.column] = slice(base + agents.index(f.column),
                                    len(header), len(agents))
        else:
            width = {"": 1, "area": 2, "cg": n_cg}[f.per]
            where[f.column] = slice(len(header), len(header) + width)
            header += ([f"{f.column}{j + 1}" for j in range(width)]
                       if f.per else [f.column])
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

    `table` (T, W) holds the whole record as floats, in anonymous shared
    memory, so a forked process can record the run. Its leading columns
    are the trace's, in `trace_columns` order; then come the untraced `s`,
    the optimizer's saddle direction, and `interior`, 1 where dispatch sits
    strictly inside its mode box, each agent by agent; then, when the
    reference is solved, `f_oracle` and `u_star`, its solution. Each
    TRACE_SPEC field is an array named by its source (`marginals` is the
    active-coordinate cost slope at the applied u) that views its columns
    of the table, as do `s`, `interior`, `f_oracle` and `u_star`, the
    int and bool fields among them as whole-number floats. `infos` reads
    the optimizer log back from those views as one dict per interval when
    the fleet takes part.
    """

    def __init__(self, config: ScenarioConfig, fleet: Fleet, surrogate,
                 oracle: bool):
        rows = config.intervals
        n, n_cg = config.fleet.n, len(config.grid.inv_droops)
        self.config, self.fleet, self.surrogate = config, fleet, surrogate
        header, where = trace_columns(n, n_cg)
        w = len(header)
        width = w + 3 * n + (1 + 2 * n if oracle else 0)
        # anonymous shared memory, zero-filled: a process forked after this
        # writes its rows where this one reads them
        try:
            shared = mmap.mmap(-1, rows * width * 8)
        except (OverflowError, OSError) as err:
            raise ConfigError(f"cannot hold the record of {rows:.3g} "
                              f"control intervals: {err}") from err
        self.table = np.frombuffer(shared, dtype=float).reshape(rows, width)
        for f in TRACE_SPEC:
            cols = self.table[:, where[f.column]]
            setattr(self, f.source, cols if f.per else cols[:, 0])
        self.s = self.table[:, w:w + 2 * n].reshape(rows, n, 2)
        self.interior = self.table[:, w + 2 * n:w + 3 * n]
        reference = self.table[:, w + 3 * n:]
        self.f_oracle = reference[:, 0] if oracle else None
        self.u_star = reference[:, 1:].reshape(rows, n, 2) if oracle else None
        self.infos = OptimizerLog(self)
        self.trace_path = None
        self.oracle_clamped = 0

    @property
    def stages(self) -> list:
        """(stage_id, start_row, end_row_exclusive) of the optimizer's
        stages; none when the fleet sits out."""
        if not self.config.bess_enabled:
            return []
        ids = self.stage
        starts = [0] + (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
        ends = starts[1:] + [len(ids)]
        return [(int(ids[lo]), lo, hi) for lo, hi in zip(starts, ends)]


class ScenarioRunner:
    """Drives one configured scenario to completion."""

    def __init__(self, config: ScenarioConfig, oracle_every: bool = False):
        self.config = config
        self.oracle_every = oracle_every
        if oracle_every and config.bess_enabled and min(
                config.fleet.per_battery(config.fleet.theta_b)) <= 0:
            raise ConfigError(
                "the per-interval reference needs a strictly convex wear "
                "term: every fleet.theta_b must be positive"
            )
        n = config.fleet.n
        self.fleet = Fleet(config.fleet, config.tau)
        self.optimizer = config.coordinator()
        self.plant = Plant(config.grid, config.dt_inner)
        # settings the config computes on each read, read once per run
        self.bias, self.d_prime = config.grid.bias, config.aie.d_prime
        self.inner_steps = config.inner_steps
        self.window = None  # last (hold window, value) of the fluctuation
        self.sigma = [1.0 / n] * n  # the fleet splits the signal evenly
        self.surrogate = (RbfSurrogate(config.aie)
                          if config.signal == "AIE" else None)
        self.u = [(0.0, 0.0)] * n  # (discharge, charge) per agent
        self.p_bess = 0.0  # the fleet's net injection under self.u
        self.agc1 = 0.0
        self.nu_hint = None
        self.result = RunResult(
            config, self.fleet, self.surrogate,
            oracle=oracle_every and config.bess_enabled,
        )

    def piece(self, t: float):
        """The piece of the configured profile that holds at time t: the
        side of the step, or the fluctuation's hold window. Both rise
        with t."""
        cfg = self.config
        if cfg.kind == "step":
            return t >= cfg.step_time
        return int(t // cfg.fluct_hold)

    def disturbance(self, t: float) -> float:
        """Net-load increase in area 1 at time t, MW."""
        cfg = self.config
        k = self.piece(t)
        if cfg.kind == "step":
            return cfg.step_mw if k else 0.0
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
        plant = self.plant

        # run the plant over the interval under the pending decision
        agc2 = compute_ace(-plant.p_tie, self.bias, plant.df[1])
        # the profile holds one value on each piece of time, and the plant's
        # times rise through the interval: when its first and last share a
        # piece, every one does
        steps, dt_inner = self.inner_steps, cfg.dt_inner
        if self.piece(t0) == self.piece(t0 + (steps - 1) * dt_inner):
            loads = [self.disturbance(t0)] * steps
        else:
            loads = [self.disturbance(t0 + j * dt_inner)
                     for j in range(steps)]
        grid_step(plant, self.p_bess, (self.agc1, agc2), loads)

        # measure the area signals at the interval boundary
        (df1, df2), p_tie, p_m = plant.df, plant.p_tie, plant.p_m[0]
        # sequential sums from 0.0, as numpy sums fewer than 8 terms
        du_cg = pm_cg = 0.0
        for u, p in zip(plant.du_gov[0], p_m):
            du_cg += u
            pm_cg += p
        if cfg.signal == "AIE":
            if self.surrogate.infill_decide(df1):
                # responsive loads report in load convention: an injection
                # shows up as a negative load deviation
                self.surrogate.add_sample(df1, -responsive_load(df1, cfg.grid))
            shares = aie_shares(self.sigma, p_tie, self.d_prime, df1,
                                du_cg, pm_cg, self.surrogate.evaluate(df1))
            agc1 = 0.0  # sequential, like the generator sums above
            for a in shares:
                agc1 += a
            self.agc1 = agc1
        else:
            ace = compute_ace(p_tie, self.bias, df1)
            shares = [s * ace for s in self.sigma]
            self.agc1 = float(ace)

        # row k describes the interval starting at this boundary: the state
        # just sampled plus the dispatch that covers [t, t+tau), its cells
        # in the order of the table's columns; p_bess, the fifth, is known
        # once the dispatch is
        row = [t0 + tau, df1, df2, p_tie, self.disturbance(t0 + tau), 0.0,
               pm_cg, *p_m, self.agc1,
               0 if self.surrogate is None else self.surrogate.m]
        table = self.result.table
        if not enabled:
            # a fleet that sits out leaves its columns at zero
            for share, soc_i in zip(shares, self.fleet.soc):
                row += (share, 0.0, 0.0, 0.0, soc_i, 0.0, 0.0, 0.0, 0.0, 0.0,
                        0.0)
            table[k, :len(row)] = row
            return

        # book the pending decision, then plan the coming interval
        plans = self.fleet.apply_all(self.u, shares)
        self.u, info = self.optimizer.iterate(
            self.u, plans, shares, df1, self.fleet.soc, row)
        row[5] = self.p_bess = info["p_bess"]
        if self.oracle_every:
            sol = centralized_solve(plans, -float(np.sum(shares)),
                                    nu_hint=self.nu_hint)
            self.nu_hint = sol.nu
            row.append(sum(m.value(d, c) for m, (d, c) in zip(plans, sol.u)))
            row += chain.from_iterable(sol.u)
            self.result.oracle_clamped += int(sol.clamped)
        table[k] = row

    def run(self, out_dir: str | None = None, write_trace: bool = True):
        # an unusable output directory fails here, before the first step
        out = resolve_out_dir(out_dir) if write_trace else None
        rec = self.result
        for k in range(len(rec.time)):
            self.step(k)
        if write_trace:
            rec.trace_path = write_trace_csv(rec, out)
        return rec


# trace rows formatted per write: a block's cells are Python floats for a
# moment, so this keeps the writer's memory a few pages, whatever the run
TRACE_BLOCK = 8


def write_trace_csv(result: RunResult, out_dir: str) -> str:
    """Write a run as `<name>.csv` in the layout of TRACE_SPEC, straight
    from the leading columns of its table, row block by row block, as
    np.savetxt(fmt="%.12g", delimiter=",") writes them. The int and bool
    columns hold whole numbers there, which %.12g prints as %d would. A
    column that holds one value bit for bit in every row, such as each
    fleet column of a run without the fleet, is formatted once."""
    cfg = result.config
    header, _ = trace_columns(cfg.fleet.n, len(cfg.grid.inv_droops))
    path = os.path.join(out_dir, f"{cfg.name}.csv")
    table = result.table[:, :len(header)]
    bits = table.view(np.uint64)
    varying = [j for j in range(len(header))
               if (bits[:, j] != bits[0, j]).any()]
    cells = ["%.12g" % v for v in table[0].tolist()]
    for j in varying:
        cells[j] = "%.12g"
    row = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# schema: {TRACE_SCHEMA}\n" + ",".join(header) + "\n")
        for lo in range(0, len(table), TRACE_BLOCK):
            block = table[lo:lo + TRACE_BLOCK, varying].tolist()
            fh.writelines(row % tuple(r) for r in block)
    return path


# arithmetic on an infinite or huge cell (inf - inf, a step past a float's
# range) gives a NaN or inf that a check reports: numpy need not warn
@np.errstate(invalid="ignore", over="ignore")
def verify_trace(path: str, soc_min: float = FleetConfig.soc_min,
                 soc_max: float = FleetConfig.soc_max) -> dict:
    """Check a written trace against the row-level invariants.

    Validates that the file parses as numbers, the schema line, the column
    layout, uniform time steps, finite values, SoC bounds, one-sided
    battery dispatch, mode codes, the logged multiplier-bound column, and
    the trace's own accounting: p_bess is the sum of d - c, p_m_total of
    p_m_cg and signal_total of the shares, each h_i is d_i - c_i + aie_i,
    the stage counts the resets and t_opt restarts at each. A trace whose
    every d, c and lam is 0, a fleet that sat out, skips the last three.
    Returns a report dict with `passed` plus one entry per check; a failed
    row check names its first violating row in its detail. An SoC
    box outside 0 <= soc_min < soc_max <= 1, NaN included, raises
    ConfigError: no trace could pass or fail it.
    """
    try:
        check_soc_box(soc_min, soc_max)
    except ValueError as err:
        raise ConfigError(f"SoC box [{soc_min}, {soc_max}]: {err}") from err
    report = {"trace": path, "rows": 0, "checks": {}, "passed": True}

    def record(name, ok, detail=""):
        report["checks"][name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            report["passed"] = False

    try:
        with open(path) as fh:
            schema, header = fh.readline(), fh.readline()
            if not header:
                raise ValueError("no schema and header lines")
            schema = schema.rstrip("\n")
            header = header.rstrip("\n").split(",")
            # an empty body is reported as no rows below, not warned about
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.size and data.shape[1] != len(header):
            raise ValueError(f"{data.shape[1]} cells a row, {len(header)} names")
    except ValueError as err:
        record("parse", False, str(err))
        return report
    record("parse", True)
    report["rows"] = len(data)
    record("schema", schema == f"# schema: {TRACE_SCHEMA}", schema)
    n = sum(1 for c in header if c.startswith("soc_"))
    n_cg = sum(1 for c in header if c.startswith("p_m_cg"))
    expected, where = trace_columns(n, n_cg)
    record(
        "columns",
        header == expected and n > 0,  # every config has a fleet
        f"{len(header)} columns, {n} agents, {n_cg} generators",
    )
    if not report["checks"]["columns"]["ok"] or not len(data):
        record("rows_present", bool(len(data)))
        return report
    col = lambda stem: data[:, where[stem]]

    def holds(name, ok, detail=""):
        """Record whether the (T,) or (T, m) mask ok holds in every row; a
        failure names the first row where it does not."""
        bad = np.flatnonzero(~ok.reshape(len(ok), -1).all(axis=1))
        record(name, bad.size == 0,
               f"first violation at row {bad[0]}" if bad.size else detail)

    # each row against the one before it; the first has none
    first = np.ones(1, dtype=bool)
    holds("finite", np.isfinite(data))
    # each time step against the trace's typical one, the median of its
    # finite steps, so a bad first step is named at row 1 and a NaN time
    # moves no reference: the middle value or the mean of the two, as
    # np.median takes it, without its import of numpy.ma
    steps = np.diff(col("time")[:, 0])
    finite = steps[np.isfinite(steps)]
    n, half = finite.size, finite.size // 2
    part = np.partition(finite, (half - 1, half)) if n > 1 else finite
    typical = (part[half] if n % 2 else (part[half - 1] + part[half]) / 2
               if n else np.nan)
    holds("uniform_time",
          np.concatenate([first, (steps > 0) & np.isclose(
              steps, typical, rtol=0, atol=1e-9)]),
          f"step {typical:.6g} s" if steps.size else "single row")
    soc = col("soc")
    holds("soc_bounds", ~((soc < soc_min - 1e-9) | (soc > soc_max + 1e-9)))
    d, c, aie = col("d"), col("c"), col("aie")
    holds("one_sided_dispatch", ~((d > 0) & (c > 0)))
    holds("mode_codes", np.isin(col("mode"), (0.0, 1.0)))
    lam = np.abs(col("lam")).max(axis=1)
    bound = col("dual_bound")[:, 0]
    active = bound > 0
    holds("multiplier_bound", ~active | (lam <= bound + 1e-9),
          f"{int(active.sum())} bounded rows")

    # the trace's own accounting: each total against its parts in the same
    # row. %.12g moves a cell by at most 5e-12 of its magnitude, so a total
    # and its parts, each printed, differ by at most 5e-12 of their summed
    # magnitudes; twice that leaves room for the sums' own rounding
    def balanced(name, total, parts):
        gap = np.abs(total - parts.sum(axis=-1))
        holds(name, gap <= TRACE_RTOL * (np.abs(total)
                                         + np.abs(parts).sum(axis=-1)))

    balanced("p_bess_sum", col("p_bess")[:, 0], np.hstack([d, -c]))
    balanced("p_m_total_sum", col("p_m_total")[:, 0], col("p_m_cg"))
    balanced("signal_total_sum", col("signal_total")[:, 0], aie)
    if not (d.any() or c.any() or col("lam").any()):
        # the fleet sat out: its optimizer columns hold zeros
        for name in ("h_balance", "stage_count", "stage_clock"):
            record(name, True, "skipped: fleet off")
        return report
    balanced("h_balance", col("h"), np.stack([d, -c, aie], axis=2))
    reset, stage = col("reset")[:, 0], col("stage")[:, 0]
    t_opt = col("t_opt")[:, 0]
    holds("stage_count",
          np.concatenate([first, stage[1:] == stage[:-1] + reset[1:]]))
    holds("stage_clock", np.concatenate([first, t_opt[1:] == np.where(
        reset[1:] != 0, 0.0, t_opt[:-1] + 1)]))
    return report


def run_scenario(
    config: ScenarioConfig, out_dir: str | None = None,
    oracle_every: bool = False,
) -> RunResult:
    """Run one scenario end to end and write its trace file."""
    runner = ScenarioRunner(config, oracle_every=oracle_every)
    return runner.run(out_dir=out_dir)
