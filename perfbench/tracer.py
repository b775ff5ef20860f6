"""Per-layer timing taken from outside the package.

The tracer replaces each layer's public entry points with timing wrappers,
at the names where `orra.scenario` and `orra.studies` (and, for the
rainflow counter, `orra.bess`) look them up at call time. Every wrapped
call is a span; a span's self time is its duration minus the spans it
encloses, so self times partition the traced wall time exactly. An entry
point that no longer exists is listed as missing and skipped, so a layer
refactor does not break the benchmark.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

# group -> (owner, attribute) pairs; owner is "module" or "module:Class"
LAYERS = {
    "grid.step": [("orra.scenario", "grid_step")],
    "grid.disturbance": [("orra.scenario", "scenario_fluctuation")],
    "oracle.solve": [("orra.scenario", "centralized_solve")],
    "optimizer.iterate": [("orra.scenario:OrraOptimizer", "iterate")],
    "bess.fleet": [
        ("orra.bess:Fleet", "apply_all"),
        ("orra.bess:Fleet", "set_modes"),
        ("orra.bess:Fleet", "feasible_intervals"),
        ("orra.bess:Fleet", "cost_models"),
    ],
    "degradation.rainflow": [("orra.degradation", "rainflow_step")],
    "aie.signal": [
        ("orra.scenario", "AieInputs"),
        ("orra.scenario", "compute_aie_bus"),
        ("orra.scenario", "compute_ace"),
    ],
    "aie.surrogate": [
        ("orra.scenario:RbfSurrogate", "infill_decide"),
        ("orra.scenario:RbfSurrogate", "add_sample"),
        ("orra.scenario:RbfSurrogate", "evaluate"),
    ],
    "scenario.step": [("orra.scenario:ScenarioRunner", "step")],
    "scenario.trace": [("orra.scenario", "write_trace_csv")],
    "scenario.run": [("orra.scenario:ScenarioRunner", "run")],
}
# groups whose every call duration is kept for percentiles
SAMPLED = ("scenario.step", "oracle.solve")
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Span accounting for one traced entry-point call."""

    def __init__(self):
        self.calls = defaultdict(int)  # outermost calls per group
        self.incl = defaultdict(float)  # outermost-call time per group
        self.self_s = defaultdict(float)
        self.samples = defaultdict(list)
        self.counters = defaultdict(int)
        self.missing = []
        self._stack = []  # child time accumulated per open span
        self._active = defaultdict(int)
        self._undo = []

    def install(self) -> None:
        for group, targets in LAYERS.items():
            for owner, attr in targets:
                holder = _resolve(owner)
                fn = getattr(holder, attr, None) if holder is not None else None
                if fn is None:
                    self.missing.append(f"{owner}.{attr}")
                    continue
                wrapped = self._wrap(group, attr, fn)
                self._undo.append((holder, attr, fn))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def _wrap(self, group: str, attr: str, fn):
        hook = getattr(self, f"_on_{attr}", None)
        sampled = group in SAMPLED
        clock = time.perf_counter
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            if hook is not None:
                after = hook(args)
            stack.append(0.0)
            active[group] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[group] -= 1
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.self_s[group] += dt - child
                if not active[group]:
                    self.calls[group] += 1
                    self.incl[group] += dt
                    if sampled:
                        self.samples[group].append(dt)
            if hook is not None:
                after(out)
            return out

        return wrapper

    # hooks: called with the call's arguments, return a callback that
    # receives the result, so counters come from where the work happens
    def _on_centralized_solve(self, args):
        def done(sol):
            self.counters["oracle.clamped"] += int(bool(sol.clamped))
        return done

    def _on_iterate(self, args):
        def done(out):
            self.counters["optimizer.stage_resets"] += int(bool(out[1]["reset"]))
        return done

    def _on_rainflow_step(self, args):
        def done(out):
            self.counters["degradation.cycles_closed"] += len(out[0])
        return done

    def _on_add_sample(self, args):
        surrogate = args[0]
        full = surrogate.m >= surrogate.max_samples

        def done(out):
            self.counters["aie.surrogate.infills"] += 1
            self.counters["aie.surrogate.evictions"] += int(full)
        return done

    def _on_write_trace_csv(self, args):
        def done(path):
            self.counters["scenario.trace_bytes"] += os.path.getsize(path)
        return done

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer figures of one traced call lasting wall_s seconds."""
        m = {}

        def timed(group, per_call=None):
            m[f"{group}.calls"] = (self.calls[group], "count")
            m[f"{group}.s"] = (self.incl[group], "s")
            if per_call:
                scale, unit = per_call
                calls = self.calls[group]
                m[f"{group}.{unit}_per_call"] = (
                    scale * self.incl[group] / calls if calls else 0.0, unit
                )

        timed("grid.step", (1e6, "us"))
        timed("grid.disturbance")
        timed("oracle.solve")
        self._percentiles(m, "oracle.solve")
        m["oracle.clamped"] = (self.counters["oracle.clamped"], "count")
        timed("optimizer.iterate", (1e6, "us"))
        m["optimizer.stage_resets"] = (
            self.counters["optimizer.stage_resets"], "count"
        )
        m["bess.fleet.s"] = (self.incl["bess.fleet"], "s")
        m["degradation.rainflow.calls"] = (
            self.calls["degradation.rainflow"], "count"
        )
        m["degradation.cycles_closed"] = (
            self.counters["degradation.cycles_closed"], "count"
        )
        m["aie.signal.s"] = (self.incl["aie.signal"], "s")
        m["aie.surrogate.s"] = (self.incl["aie.surrogate"], "s")
        m["aie.surrogate.infills"] = (
            self.counters["aie.surrogate.infills"], "count"
        )
        m["aie.surrogate.evictions"] = (
            self.counters["aie.surrogate.evictions"], "count"
        )
        self._percentiles(m, "scenario.step")
        m["scenario.step.self_s"] = (self.self_s["scenario.step"], "s")
        m["scenario.trace.s"] = (self.incl["scenario.trace"], "s")
        m["scenario.trace_mb"] = (
            self.counters["scenario.trace_bytes"] / 2**20, "MB"
        )
        # the entry point's own time outside the runner: summaries, lemma
        # checks, regret fit, JSON (and building the runner)
        m["studies.report.s"] = (wall_s - self.incl["scenario.run"], "s")
        # the runner's glue outside its steps and trace writing (result
        # assembly) is the only time no layer claims
        m["trace.unattributed_share"] = (
            self.self_s["scenario.run"] / wall_s, "ratio"
        )
        m["trace.missing"] = (len(self.missing), "count")
        m["trace.wall_s"] = (wall_s, "s")
        return m

    def _percentiles(self, m: dict, group: str) -> None:
        ms = np.asarray(self.samples[group]) * 1e3
        pct = tail_percentile(len(ms))
        for name, p in (("ms_p50", 50.0), ("ms_tail", pct)):
            value = float(np.percentile(ms, p)) if len(ms) else 0.0
            m[f"{group}.{name}"] = (value, "ms")
        m[f"{group}.tail_pct"] = (pct, "%")


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it;
    the median when there are too few samples for any tail."""
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0

