"""Experiment drivers: ablation arms, regret reports, curve exports.

Everything here consumes a finished RunResult (or drives runs itself) and
reduces it to the artifacts a study needs: summary metrics, tidy CSVs,
static SVG charts, and machine-checkable reports.  Each figure is one list
of (CSV column, legend label, values) series that both its CSV and its
chart are written from; each report is written by `_write_json`. The
summaries and reports read the record's columns as Python floats; only
the curve exports import numpy.
"""
from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, replace
from math import fsum

from .oracle import dynamic_regret, lemma1_check, lemma2_check, regret_slope
from .scenario import (
    ConfigError,
    RunResult,
    ScenarioConfig,
    ScenarioRunner,
    resolve_out_dir,
)

# the four comparison arms: signal choice crossed with fleet participation
ARMS = (
    ("AIE", True),
    ("ACE", True),
    ("AIE", False),
    ("ACE", False),
)


def arm_label(signal: str, bess_enabled: bool) -> str:
    return f"{signal.lower()}_{'bess' if bess_enabled else 'nobess'}"


SETTLE_BAND = 0.005  # Hz, the |df| band a settled signal stays inside
SETTLE_WINDOW = 10.0  # s it must stay there


def settle_time(t, df) -> float:
    """First time |df| stays inside the band for SETTLE_WINDOW seconds.

    The search starts at the first excursion beyond the band, so the quiet
    stretch before a disturbance never counts as settling.  The window
    spans at least one sample, however long the interval.  Returns 0.0
    when the band is never left and inf when the signal never settles.
    """
    t = list(map(float, t))
    adf = [abs(float(v)) for v in df]
    first = next((i for i, a in enumerate(adf) if a >= SETTLE_BAND), None)
    if first is None:
        return 0.0
    if len(t) < 2:
        return math.inf
    n = max(1, int(round(SETTLE_WINDOW / (t[1] - t[0]))))
    run = 0
    for i in range(first, len(adf)):
        run = run + 1 if adf[i] < SETTLE_BAND else 0
        if run >= n:
            return t[i - n + 1]
    return math.inf


def nadir(df) -> float:
    """Deepest frequency excursion, signed: the first of the largest
    magnitude."""
    return max(map(float, df), key=abs)


@dataclass
class ArmSummary:
    signal: str
    bess_enabled: bool
    trace_path: str
    nadir_hz: float
    settle_s: float
    signal_rms: float


# the runners of a forked ablation worker's pool and their output
# directory, set as the worker starts
_worker_arms: tuple = ()


def _take_arms(runners: list, out: str, cpus: int) -> None:
    """Start a forked worker: keep the pool's runners and output directory,
    and pin the worker to the next CPU the parent wrote to the pipe `cpus`.
    Placement is a hint: where the pin is refused, the worker runs
    unpinned."""
    global _worker_arms
    _worker_arms = runners, out
    cpu = int.from_bytes(os.read(cpus, 4), "little")
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


def _run_arm(k: int) -> tuple:
    """Run arm k of the worker's pool and write its trace.

    The rows land in the arm's shared table; what else the run changed
    comes back: (fleet, surrogate, trace path).
    """
    runners, out = _worker_arms
    runner = runners[k]
    return runner.fleet, runner.surrogate, runner.run(out).trace_path


def _run_arms(runners: list, out: str) -> None:
    """Run every arm, on one forked worker per CPU this process may use,
    each pinned to its own CPU; with one CPU, or on a platform without an
    affinity mask (macOS and Windows, where fork is unsafe or missing), in
    this process in order."""
    allowed = (sorted(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else [])
    workers = min(len(runners), len(allowed))
    if workers < 2:
        for runner in runners:
            runner.run(out)
        return
    # imported here: `import orra.studies` stays as light as it was
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # one CPU per worker, 4 bytes each, all written before the pool forks
    # its first worker: an unpinned fork stays on this process's CPU, so
    # two short arms would share one
    cpus, fill = os.pipe()
    try:
        with open(fill, "wb") as fh:
            fh.write(b"".join(cpu.to_bytes(4, "little")
                              for cpu in allowed[:workers]))
        # an executor, not a multiprocessing.Pool: a Pool whose worker is
        # killed mid-arm waits for that arm forever, this raises; a forked
        # worker inherits initargs unpickled, so it fills the shared tables
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_take_arms, initargs=(runners, out, cpus),
        ) as pool:
            ends = list(pool.map(_run_arm, range(len(runners))))
    finally:
        os.close(cpus)
    for runner, end in zip(runners, ends):
        rec = runner.result
        rec.fleet, rec.surrogate, rec.trace_path = end


def run_ablation(config: ScenarioConfig, out_dir: str | None = None):
    """Run the four signal/participation arms on identical disturbances.

    The arms run side by side on forked workers, up to one per CPU and
    each pinned to its own, each recording into a table in shared memory.
    Returns (results, summaries): the per-arm RunResult map keyed by
    (signal, bess_enabled) and the comparison summary list, which is also
    written to `<name>_ablation.json` next to the traces.
    """
    # every record is allocated before the output directory is made
    runners = [
        ScenarioRunner(replace(
            config,
            name=f"{config.name}_{arm_label(signal, bess)}",
            signal=signal,
            bess_enabled=bess,
        ))
        for signal, bess in ARMS
    ]
    out = resolve_out_dir(out_dir)
    _run_arms(runners, out)
    results = {}
    summaries = []
    for (signal, bess), runner in zip(ARMS, runners):
        results[(signal, bess)] = result = runner.result
        df1 = result.columns("df")[0]
        signal_total = result.columns("signal_total")[0]
        summaries.append(
            ArmSummary(
                signal=signal,
                bess_enabled=bess,
                trace_path=result.trace_path,
                nadir_hz=nadir(df1),
                settle_s=settle_time(result.columns("time")[0], df1),
                signal_rms=math.sqrt(
                    fsum(v * v for v in signal_total) / len(signal_total)),
            )
        )
    _write_json(out, f"{config.name}_ablation", [asdict(s) for s in summaries])
    return results, summaries


def _write_json(out: str, stem: str, obj) -> None:
    with open(os.path.join(out, f"{stem}.json"), "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def stage_lemma_checks(result: RunResult, gamma: float) -> list:
    """Evaluate both per-stage certificate inequalities on a logged run.

    Needs a run recorded with the per-interval reference solution; every
    stage with at least two iterations is checked.
    """
    if not result.oracle:
        raise ValueError("run must log the per-interval reference solution")

    def rows(name):
        """The named group's columns side by side, one tuple per row."""
        return list(zip(*result.columns(name)))

    def pairs(name):
        """Each row of a group that holds (d, c) per agent, as n pairs."""
        return [list(zip(row[0::2], row[1::2])) for row in rows(name)]

    # one entry per agent in every row: a number, or its (d, c) pair
    u = [list(zip(d, c)) for d, c in zip(rows("d"), rows("c"))]
    u_star, s = pairs("u_star"), pairs("s")
    lam, lam_mixed = rows("lam"), rows("lam_mixed")
    y, y_mixed = rows("y"), rows("y_mixed")
    (kappa,), (eps,) = result.columns("kappa"), result.columns("eps")
    (f_dist,), (f_oracle,) = (result.columns("f_dist"),
                              result.columns("f_oracle"))
    out = []
    for sid, lo, hi in result.stages:
        if hi - lo < 2:
            continue
        kap = kappa[lo:hi]
        chk1 = lemma1_check(
            u[lo:hi], u_star[lo:hi], s[lo:hi], lam[lo:hi],
            lam_mixed[lo:hi], y[lo:hi], y_mixed[lo:hi], kap, eps[lo:hi],
            gamma, f_dist[lo:hi], f_oracle[lo:hi],
        )
        b_u = max(math.sqrt(fsum(v * v for pair in row for v in pair))
                  for row in u[lo:hi])
        chk2 = lemma2_check(u[lo:hi], u_star[lo:hi], kap, b_u)
        out.append(
            {
                "stage": int(sid),
                "length": hi - lo,
                "lemma1": chk1,
                "lemma2": chk2,
            }
        )
    return out


def stage_cost_gaps(result: RunResult, min_len: int = 1) -> list:
    """Final-quarter average cost gap against the reference, per stage."""
    if not result.oracle:
        raise ValueError("run must log the per-interval reference cost")
    (f_dist,), (f_oracle,) = (result.columns("f_dist"),
                              result.columns("f_oracle"))
    (time,) = result.columns("time")
    out = []
    for sid, lo, hi in result.stages:
        ln = hi - lo
        if ln < min_len:
            continue
        q = max(1, ln // 4)
        window = range(hi - q, hi)
        gap = fsum(abs(f_dist[k] - f_oracle[k]) for k in window) / q
        ref = fsum(f_oracle[k] for k in window) / q
        if ref > 0:
            ratio = gap / ref
        else:
            ratio = 0.0 if gap == 0.0 else float("inf")
        out.append(
            {
                "stage": int(sid),
                "length": ln,
                "start_s": time[lo],
                "gap_avg": gap,
                "oracle_avg": ref,
                "ratio": ratio,
            }
        )
    return out


def run_regret_study(
    config: ScenarioConfig, horizons, out_dir: str | None = None
):
    """Run the scenario against the per-interval reference and report.

    The report carries the cumulative cost gap at each horizon (measured
    on the longest logged stage), the fitted growth exponent, both
    certificate checks per stage, and the final-quarter gap per converged
    stage.  Written to `<name>_regret.json`; returns (result, report).
    """
    for h in horizons:
        if isinstance(h, bool) or not isinstance(h, numbers.Integral):
            raise ConfigError(f"horizon {h!r} is not an integer")
    horizons = [int(h) for h in horizons]
    if not horizons or any(
        b <= a for a, b in zip(horizons, horizons[1:])
    ) or horizons[0] <= 0:
        raise ConfigError("horizons must be positive and ascending")
    if not config.bess_enabled:
        raise ConfigError("regret study needs the fleet enabled")
    out = resolve_out_dir(out_dir)
    result = ScenarioRunner(config, oracle_every=True).run(out_dir=out)
    stages = result.stages
    sid, lo, hi = max(stages, key=lambda st: st[2] - st[1])
    usable = [h for h in horizons if h <= hi - lo]
    (f_dist,), (f_oracle,) = (result.columns("f_dist"),
                              result.columns("f_oracle"))
    regs = [dynamic_regret(f_dist[lo:hi], f_oracle[lo:hi], T=h)
            for h in usable]
    try:
        fit = regret_slope(usable, regs)
        fit_entry = asdict(fit)
    except ValueError as err:
        fit, fit_entry = None, {"error": str(err)}
    checks = stage_lemma_checks(result, config.optimizer.gamma)
    min_len = max(2, config.optimizer.t_max // 2)
    report = {
        "trace": result.trace_path,
        "stage_count": len(stages),
        "longest_stage": {
            "stage": int(sid),
            "start_s": result.columns("time")[0][lo],
            "length": hi - lo,
        },
        "regret": [
            {"horizon": h, "value": g} for h, g in zip(usable, regs)
        ],
        "skipped_horizons": [h for h in horizons if h > hi - lo],
        "slope": fit_entry,
        "certificates": [
            dict(c, lemma1=_bound(c["lemma1"]), lemma2=_bound(c["lemma2"]))
            for c in checks
        ],
        "final_quarter_gaps": stage_cost_gaps(result, min_len=min_len),
        "reference_clamped_intervals": result.oracle_clamped,
    }
    _write_json(out, f"{config.name}_regret", report)
    return result, report


def _bound(check) -> dict:
    """A certificate's BoundCheck as its report entry."""
    return {"lhs": float(check.lhs), "rhs": float(check.rhs),
            "holds": bool(check.holds)}


# ---------------------------------------------------------------------------
# curve exports: tidy CSVs plus small static SVG charts
# ---------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _write_csv(out: str, stem: str, t, series: list) -> str:
    import numpy as np

    path = os.path.join(out, f"{stem}.csv")
    rows = np.column_stack([t] + [y for _, _, y in series])
    header = ",".join(["time_s"] + [column for column, _, _ in series])
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt="%.10g", delimiter=",", newline="\r\n",
                   header=header, comments="")
    return path


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    """count evenly spaced ticks from lo to hi, both ends included."""
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count - 1)] + [hi]


def svg_line_chart(
    out: str, stem: str, t, series: list, title: str, y_label: str
) -> str:
    """Write `<stem>.svg`, a fixed-size line chart of (column, label,
    values) series against time; returns its path."""
    import numpy as np

    x = np.asarray(t, dtype=float)
    width, height = 860, 420
    left, right, top, bottom = 64, 16, 36, 44
    pw, ph = width - left - right, height - top - bottom
    ys = [np.asarray(y, dtype=float) for _, _, y in series]
    y_lo = min(float(v.min()) for v in ys)
    y_hi = max(float(v.max()) for v in ys)
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    sx = lambda v: left + (v - x_lo) / (x_hi - x_lo) * pw
    sy = lambda v: top + (y_hi - v) / (y_hi - y_lo) * ph
    stride = max(1, len(x) // 1500)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="20" font-family="sans-serif" '
        f'font-size="14" font-weight="bold">{title}</text>',
    ]
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{left}" y1="{py:.1f}" x2="{width - right}" '
            f'y2="{py:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<text x="{px:.1f}" y="{height - bottom + 16}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{tick:.4g}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + ph}" x2="{width - right}" '
        f'y2="{top + ph}" stroke="black" stroke-width="1"/>'
    )
    for k, ((_, label, _), y) in enumerate(zip(series, ys)):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{sx(xv):.1f},{sy(yv):.1f}"
            for xv, yv in zip(x[::stride], y[::stride])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = top + 14 + 16 * k
        lx = width - right - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append(
        f'<text x="{left + pw / 2:.1f}" y="{height - 8}" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'font-size="12">time (s)</text>'
    )
    parts.append(
        f'<text x="16" y="{top + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {top + ph / 2:.1f})">{y_label}</text>'
    )
    parts.append("</svg>")
    path = os.path.join(out, f"{stem}.svg")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def _figure(out: str, stem: str, t, series: list, title: str,
            y_label: str) -> list:
    """Write `<stem>.csv` and its chart `<stem>.svg`; returns both paths."""
    return [_write_csv(out, stem, t, series),
            svg_line_chart(out, stem, t, series, title, y_label)]


def _per_unit(table, column: str, label: str) -> list:
    """One series per column of `table`, numbered from 1."""
    return [(column.format(i + 1), f"{label} {i + 1}", table[:, i])
            for i in range(table.shape[1])]


def export_step_event_curves(
    result: RunResult, out_dir: str | None = None
) -> list:
    """Per-agent net power and marginal-cost curves, plus the online-vs-
    reference cost pair when the run logged it.  fig5a/fig5b/fig5c are the
    stable artifact names for the standard report."""
    out = resolve_out_dir(out_dir)
    t = result.time
    paths = _figure(
        out, "fig5a", t,
        _per_unit(result.d - result.c, "net_power_{}_mw", "agent"),
        "Per-agent net power", "net power (MW)",
    ) + _figure(
        out, "fig5b", t, _per_unit(result.marginals, "marginal_{}", "agent"),
        "Active-coordinate marginal wear cost", "marginal cost",
    )
    if result.f_oracle is not None:
        paths += _figure(
            out, "fig5c", t,
            [("cost_online", "online", result.f_dist),
             ("cost_reference", "reference", result.f_oracle)],
            "Instantaneous cost, online vs centralized reference", "cost",
        )
    return paths


def export_ablation_curves(results: dict, out_dir: str | None = None) -> list:
    """Area-1 frequency deviation for the four arms on one axis (fig6)."""
    out = resolve_out_dir(out_dir)
    series = [
        (f"df1_{arm_label(*arm)}_hz", arm_label(*arm), result.df[:, 0])
        for arm, result in results.items()
    ]
    return _figure(
        out, "fig6", next(iter(results.values())).time, series,
        "Frequency deviation by signal and fleet participation",
        "df area 1 (Hz)",
    )


def export_fluctuation_curves(
    result: RunResult, out_dir: str | None = None
) -> list:
    """Net load, fleet power, and per-battery SoC trajectories (fig7): one
    CSV of every series, charted as power and as SoC."""
    out = resolve_out_dir(out_dir)
    t = result.time
    power = [("net_load_mw", "net load", result.dist),
             ("fleet_power_mw", "fleet power", result.p_bess)]
    soc = _per_unit(result.soc, "soc_{}", "battery")
    return [
        _write_csv(out, "fig7", t, power + soc),
        svg_line_chart(out, "fig7_power", t, power,
                       "Net-load fluctuation and fleet response",
                       "power (MW)"),
        svg_line_chart(out, "fig7_soc", t, soc,
                       "State of charge under fluctuating net load", "SoC"),
    ]
