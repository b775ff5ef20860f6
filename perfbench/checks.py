"""Output checks for the benchmark workloads.

Every check compares a program output against a quantity computed here,
apart from the program (a re-integration, an independent redraw or cycle
count, a closed-form formula), or against a property the method must have.
Each function returns a list of failure messages; an empty list means the
check passed. Only numpy and the standard library are used, so the checks
share no code with the package under test.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

SCHEMA_LINE = "# schema: orra-trace-v1"
AGENT_FIELDS = (
    "aie", "mode", "d", "c", "soc", "marg", "lam", "lam_mix", "y", "y_mix",
    "h",
)
SOC_TOL = 1e-9
POWER_TOL = 1e-9  # MW, covers the 12 significant digits the trace keeps
BALANCE_TOL = 1e-6  # MW, the reference's own solve tolerance


def expected_header(n_agents: int, n_cg: int) -> list:
    """Column layout of a trace, as documented for the v1 schema."""
    cols = ["time", "df1", "df2", "p_tie", "dist", "p_bess", "p_m_total"]
    cols += [f"p_m_cg{j}" for j in range(1, n_cg + 1)]
    cols += ["signal_total", "surrogate_m"]
    for i in range(n_agents):
        cols += [f"{name}_{i}" for name in AGENT_FIELDS]
    cols += ["kappa", "eps", "reset", "stage", "t_opt", "dual_bound", "f_dist"]
    return cols


class Trace:
    """A trace file read back from disk: schema line, header, float table."""

    def __init__(self, schema: str, header: list, data: np.ndarray):
        self.schema = schema
        self.header = header
        self.data = data
        self._col = {name: k for k, name in enumerate(header)}

    @classmethod
    def read(cls, path: str) -> "Trace":
        with open(path, newline="") as fh:
            schema = fh.readline().rstrip("\n")
            reader = csv.reader(fh)
            header = next(reader)
            data = np.array([[float(v) for v in row] for row in reader])
        return cls(schema, header, data)

    def copy(self) -> "Trace":
        return Trace(self.schema, list(self.header), self.data.copy())

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self._col[name]]

    def agents(self, field: str, n: int) -> np.ndarray:
        return self.data[:, [self._col[f"{field}_{i}"] for i in range(n)]]

    def set_agents(self, field: str, n: int, values: np.ndarray) -> None:
        for i in range(n):
            self.data[:, self._col[f"{field}_{i}"]] = values[:, i]


def check_trace(tr: Trace, cfg, fleet_on: bool) -> list:
    """Row-level checks every trace must pass.

    cfg is the ScenarioConfig the run used; only plain numbers are read
    from it. SoC is re-integrated from the logged dispatch with the
    efficiency formula, starting from the configured initial SoC.
    """
    f = cfg.fleet
    n = len(f.initial_soc)
    n_cg = len(cfg.grid.inv_droops)
    fails = []
    if tr.schema != SCHEMA_LINE:
        fails.append(f"schema line {tr.schema!r}")
    if tr.header != expected_header(n, n_cg):
        fails.append("header differs from the v1 column layout")
        return fails
    rows = int(round(cfg.duration / cfg.tau))
    if tr.data.shape[0] != rows:
        fails.append(f"{tr.data.shape[0]} rows, expected {rows}")
        return fails
    grid = (np.arange(rows) + 1) * cfg.tau
    if not np.allclose(tr.col("time"), grid, rtol=0, atol=1e-9):
        fails.append("time column is not the uniform (k+1)*tau grid")
    if not np.isfinite(tr.data).all():
        fails.append("non-finite values")

    d, c, soc = tr.agents("d", n), tr.agents("c", n), tr.agents("soc", n)
    # row k logs the SoC after applying the dispatch logged in row k-1
    tau_h = cfg.tau / 3600.0
    step = f.eta_c * tau_h / f.capacity * c - tau_h / (f.eta_d * f.capacity) * d
    expect = np.empty_like(soc)
    x = np.array(f.initial_soc, dtype=float)
    for k in range(rows):
        expect[k] = x
        x = np.clip(x + step[k], f.soc_min, f.soc_max)
    err = np.abs(soc - expect)
    if err.max() > SOC_TOL:
        k = int(np.argmax(err.max(axis=1)))
        fails.append(
            f"SoC re-integration off by {err.max():.3e} (first worst row {k})"
        )
    if soc.min() < f.soc_min - SOC_TOL or soc.max() > f.soc_max + SOC_TOL:
        fails.append(f"SoC left [{f.soc_min}, {f.soc_max}]")
    if (d < 0).any() or (c < 0).any():
        fails.append("negative dispatch")
    if ((d > 0) & (c > 0)).any():
        fails.append("dispatch is not one-sided")
    net = (d - c).sum(axis=1)
    if np.abs(tr.col("p_bess") - net).max() > POWER_TOL:
        fails.append("p_bess differs from the summed d - c")
    if not fleet_on and (np.abs(d).max() > 0 or np.abs(c).max() > 0):
        fails.append("fleet-off run dispatched power")
    if fleet_on and np.abs(net).max() == 0:
        fails.append("fleet-on run never dispatched")
    return fails


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------


def nadir_of(df1: np.ndarray) -> float:
    return float(df1[int(np.argmax(np.abs(df1)))])


def settle_of(t, df1, band=0.005, window=10.0) -> float:
    """Start of the first `window`-second stay inside the band after the
    first excursion beyond it (0 when never left, inf when never back)."""
    out = np.abs(df1) >= band
    if not out.any():
        return 0.0
    need = int(round(window / (t[1] - t[0])))
    inside = 0
    for k in range(int(np.argmax(out)), len(t)):
        inside = 0 if out[k] else inside + 1
        if inside >= need:
            return float(t[k - need + 1])
    return math.inf


def check_ablation(traces: dict, summary_path: str, cfg) -> list:
    """traces maps (signal, fleet_on) to the Trace of that arm."""
    fails = []
    with open(summary_path) as fh:
        summary = {(s["signal"], s["bess_enabled"]): s for s in json.load(fh)}
    if set(summary) != set(traces):
        return [f"summary arms {sorted(summary)} != traces {sorted(traces)}"]
    nad, settle = {}, {}
    for key, tr in traces.items():
        t, df1 = tr.col("time"), tr.col("df1")
        nad[key] = nadir_of(df1)
        settle[key] = settle_of(t, df1)
        s = summary[key]
        if not math.isclose(nad[key], s["nadir_hz"], rel_tol=1e-10,
                            abs_tol=1e-12):
            fails.append(f"{key} nadir {nad[key]} != summary {s['nadir_hz']}")
        if not (settle[key] == s["settle_s"]
                or abs(settle[key] - s["settle_s"]) <= 1e-9):
            fails.append(
                f"{key} settle {settle[key]} != summary {s['settle_s']}"
            )
    for sig in ("AIE", "ACE"):
        if not abs(nad[(sig, True)]) < abs(nad[(sig, False)]):
            fails.append(f"fleet does not cut |nadir| under {sig}")
    if not settle[("AIE", True)] <= settle[("ACE", True)]:
        fails.append(
            f"AIE fleet arm settles at {settle[('AIE', True)]} s, after the "
            f"ACE arm at {settle[('ACE', True)]} s"
        )
    g = cfg.grid
    expect = len(g.inv_droops) * g.ramp_limit * 100.0
    for sig in ("AIE", "ACE"):
        tr = traces[(sig, False)]
        t, pm = tr.col("time"), tr.col("p_m_total")
        i0 = int(np.searchsorted(t, cfg.step_time))
        i1 = int(np.searchsorted(t, cfg.step_time + 100.0))
        ramp = pm[i1] - pm[i0]
        if not 0.8 * expect <= ramp <= 1.2 * expect:
            fails.append(
                f"{sig} no-fleet generators ramp {ramp:.3f} MW in 100 s, "
                f"expected {expect:.3f} +- 20%"
            )
    n = len(cfg.fleet.initial_soc)
    tr = traces[("AIE", True)]
    end_gap = np.abs(tr.agents("d", n)[-1] - tr.agents("c", n)[-1]).max()
    if not end_gap < 1e-3:
        fails.append(f"AIE fleet arm ends with |d - c| = {end_gap:.2e} MW")
    return fails


# ---------------------------------------------------------------------------
# fluctuation
# ---------------------------------------------------------------------------


def check_disturbance(tr: Trace, cfg) -> list:
    """The dist column against an independent redraw of the hold windows."""
    rows = tr.data.shape[0]
    # the runner evaluates the profile at k*tau + tau, so redraw there
    t = [k * cfg.tau + cfg.tau for k in range(rows)]
    expect = np.array([
        np.random.default_rng([cfg.seed, int(tk // cfg.fluct_hold)]).uniform(
            cfg.fluct_low, cfg.fluct_high
        )
        for tk in t
    ])
    err = np.abs(tr.col("dist") - expect)
    if err.max() > 1e-9:
        return [f"dist differs from the seeded redraw by {err.max():.3e} MW "
                f"(row {int(np.argmax(err))})"]
    return []


def rainflow_closed(series) -> list:
    """ASTM E1049 three/four-point count of a whole series.

    Returns the (depth, count) pairs of the cycles closed by the sequence:
    full cycles for interior closures, half cycles for closures whose range
    still holds the starting point. The open residue is not included.
    """
    points = []
    for v in map(float, series):
        if points and v == points[-1]:
            continue
        if len(points) >= 2 and (points[-1] - points[-2]) * (v - points[-1]) > 0:
            points[-1] = v
        else:
            points.append(v)
    stack, closed = [], []
    for p in points:
        stack.append(p)
        while len(stack) >= 3:
            rng_new = abs(stack[-1] - stack[-2])
            rng_old = abs(stack[-2] - stack[-3])
            if rng_new < rng_old:
                break
            if len(stack) == 3:
                closed.append((rng_old, 0.5))
                stack.pop(0)
            else:
                closed.append((rng_old, 1.0))
                del stack[-3:-1]
    return closed


def check_lifetime_loss(soc: np.ndarray, initial_soc, booked, aging) -> list:
    """Booked loss per battery against a batch count of its SoC series.

    soc: (T, n) SoC after each applied interval; booked: per-battery loss
    the run accumulated online; aging: (a, b) of the depth-loss power law.
    """
    a, b = aging
    fails = []
    for i, loss in enumerate(booked):
        series = [initial_soc[i]] + list(soc[:, i])
        expect = sum(0.5 * n * a * depth**b
                     for depth, n in rainflow_closed(series))
        if not math.isclose(loss, expect, rel_tol=1e-9, abs_tol=1e-15):
            fails.append(
                f"battery {i} booked loss {loss:.12e}, batch count gives "
                f"{expect:.12e}"
            )
    if all(x == 0 for x in booked):
        fails.append("no battery closed a cycle")
    return fails


def check_surrogate(sample_df, sample_dp, weights, cfg) -> list:
    """Stored samples against the sectional droop, and exact interpolation.

    The droop from the config injects slope*(|df| - deadband) against the
    deviation beyond the deadband; the surrogate stores it in load
    convention, so a stored sample is sign(df)*slope*max(|df| - db, 0).
    """
    g, a = cfg.grid, cfg.aie
    xs = np.asarray(sample_df, dtype=float)
    ys = np.asarray(sample_dp, dtype=float)
    if len(xs) == 0:
        return ["surrogate holds no samples"]
    fails = []
    truth = np.sign(xs) * g.frr_slope * np.maximum(np.abs(xs) - g.frr_deadband,
                                                   0.0)
    if np.abs(ys - truth).max() > 1e-12:
        fails.append("a stored sample differs from the sectional droop")
    gaps = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < a.rbf_d_min:
        fails.append("two stored samples are closer than d_min")
    if len(xs) > a.rbf_max_samples:
        fails.append(f"{len(xs)} samples exceed the cap {a.rbf_max_samples}")
    kernel = np.exp(-a.rbf_xi * (xs[:, None] - xs[None, :]) ** 2)
    err = np.abs(kernel @ np.asarray(weights, dtype=float) - ys)
    if err.max() > 1e-8:
        fails.append(f"surrogate misses a stored sample by {err.max():.2e} MW")
    return fails


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------


def check_regret(report: dict, stage_ids, u_star, modes, signal_total,
                 cfg) -> list:
    """Certificates, power balance of the reference, and its box.

    stage_ids: optimizer stage per interval; u_star: (T, n, 2) reference
    (d*, c*); modes: (T, n) with 1 for discharge; signal_total: (T,).
    """
    fails = []
    stage_ids = np.asarray(stage_ids)
    _, lengths = np.unique(stage_ids, return_counts=True)
    expect_certs = int((lengths >= 2).sum())
    certs = report["certificates"]
    if len(certs) != expect_certs:
        fails.append(
            f"{len(certs)} certificates for {expect_certs} stages of 2+ rows"
        )
    bad = [c["stage"] for c in certs
           if not (c["lemma1"]["holds"] and c["lemma2"]["holds"])]
    if bad:
        fails.append(f"certificates fail on stages {bad}")

    f = cfg.fleet
    d_star, c_star = u_star[:, :, 0], u_star[:, :, 1]
    if (u_star < 0).any():
        fails.append("negative reference power")
    if (d_star > f.discharge_limit + POWER_TOL).any() or (
        c_star > f.charge_limit + POWER_TOL
    ).any():
        fails.append("reference power beyond the power limits")
    if (np.where(modes == 1, c_star, d_star) != 0).any():
        fails.append("reference uses an inactive coordinate")

    miss = np.abs((d_star - c_star).sum(axis=1) + signal_total) > BALANCE_TOL
    clamped = int(report["reference_clamped_intervals"])
    if int(miss.sum()) > clamped:
        fails.append(
            f"reference misses the target on {int(miss.sum())} intervals, "
            f"{clamped} reported clamped"
        )
    # a clamped interval has every agent at an end of its box
    limit = np.where(modes == 1, f.discharge_limit, f.charge_limit)
    active = np.where(modes == 1, d_star, c_star)
    at_end = (np.abs(active) <= POWER_TOL) | (np.abs(active - limit) <= POWER_TOL)
    if not at_end[miss].all():
        fails.append("reference misses the target with an agent inside its box")
    return fails
