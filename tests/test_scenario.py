"""Closed-loop runner: protocol wiring, determinism, config handling."""
import io
import json
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from orra import scenario
from orra.bess import Fleet
from orra.grid import scenario_fluctuation
from orra.optimizer import OrraOptimizer
from orra.scenario import (
    ConfigError,
    ScenarioConfig,
    ScenarioRunner,
    run_scenario,
)
from scenario_reference import ReferenceRunner


def short_config(**kw):
    kw.setdefault("name", "short")
    kw.setdefault("duration", 20.0)
    return ScenarioConfig(**kw)


def test_zero_disturbance_trace_is_all_zero(tmp_path):
    cfg = short_config(duration=10.0, step_mw=0.0)
    r = ScenarioRunner(cfg).run(str(tmp_path))
    for arr in (r.df, r.p_tie, r.p_bess, r.p_m_total, r.signal_total,
                r.d, r.c, r.marginals, r.f_dist):
        assert np.all(arr == 0.0)
    assert np.all(r.soc == np.array(cfg.fleet.initial_soc))


def test_determinism_byte_identical(tmp_path):
    cfg = short_config(kind="fluctuation")
    a = ScenarioRunner(cfg).run(out_dir=str(tmp_path / "a"))
    b = ScenarioRunner(cfg).run(out_dir=str(tmp_path / "b"))
    with open(a.trace_path, "rb") as fh:
        first = fh.read()
    with open(b.trace_path, "rb") as fh:
        second = fh.read()
    assert first == second


def test_seed_changes_fluctuation_trace(tmp_path):
    base = short_config(kind="fluctuation")
    other = short_config(kind="fluctuation", seed=1)
    a = ScenarioRunner(base).run(out_dir=str(tmp_path / "a"))
    b = ScenarioRunner(other).run(out_dir=str(tmp_path / "b"))
    assert not np.array_equal(a.dist, b.dist)


def test_config_validation_messages():
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="ramp")
    with pytest.raises(ConfigError):
        ScenarioConfig(signal="AGC")
    with pytest.raises(ConfigError):
        ScenarioConfig(dt_inner=0.2, tau=0.1)
    from orra.scenario import FleetConfig, OptimizerConfig

    with pytest.raises(ConfigError):
        ScenarioConfig(fleet=FleetConfig(initial_soc=(0.1, 0.5)))
    # rate exponents outside the admissible region are rejected at load time
    with pytest.raises(ConfigError):
        ScenarioConfig(optimizer=OptimizerConfig(alpha=1.2))
    with pytest.raises(ConfigError):
        ScenarioConfig(optimizer=OptimizerConfig(alpha=0.8, beta=0.3))


def test_every_config_leaf_has_one_domain():
    def declared(obj, prefix=""):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if is_dataclass(value):
                yield from declared(value, f"{prefix}{f.name}.")
            else:
                yield prefix + f.name, f.metadata.get("domain")

    def leaves(data, prefix=""):
        for key, value in data.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    table = dict(declared(ScenarioConfig()))
    assert sorted(table) == sorted(leaves(ScenarioConfig().to_dict()))
    assert len(table) == 48
    assert all(isinstance(d, scenario.Domain) for d in table.values())


def test_config_round_trip(tmp_path):
    cfg = short_config(kind="fluctuation", seed=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ScenarioConfig.from_json(str(path))
    assert again.to_dict() == cfg.to_dict()
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"unknown_field": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"grid": {"bogus": 1.0}})
    # the mode sign is fixed by the model, not a setting
    with pytest.raises(ConfigError, match="unknown aie fields"):
        ScenarioConfig.from_dict({"aie": {"mode_direction": -1}})


def test_step_event_qualitative_shape(tmp_path):
    # fleet covers the step fast, then hands the energy back: powers rise
    # well above zero and die away by the end of the run
    r = ScenarioRunner(ScenarioConfig()).run(str(tmp_path))
    assert r.p_bess.max() > 4.0
    assert abs(r.p_bess[-1]) < 0.05
    assert np.abs(r.d[-1] - r.c[-1]).max() < 1e-3


def test_ace_mode_matches_logged_measurements(tmp_path):
    from orra.aie import compute_ace

    cfg = short_config(signal="ACE")
    rn = ScenarioRunner(cfg)
    r = rn.run(str(tmp_path))
    assert rn.surrogate is None
    bias = cfg.grid.bias
    expect = np.array(
        [compute_ace(pt, bias, f) for pt, f in zip(r.p_tie, r.df[:, 0])]
    )
    assert np.allclose(r.signal_total, expect, atol=1e-12)


def test_disabled_fleet_stays_idle(tmp_path):
    cfg = short_config(bess_enabled=False)
    r = ScenarioRunner(cfg).run(str(tmp_path))
    assert np.all(r.d == 0.0) and np.all(r.c == 0.0)
    assert np.all(r.p_bess == 0.0)
    assert len(r.infos) == 0 and r.stages == []
    # the plant still responds to the step on its own
    assert r.df[:, 0].min() < -0.1


@pytest.mark.parametrize("bess_enabled", [True, False],
                         ids=["fleet_on", "fleet_off"])
def test_fleet_books_every_decision_but_the_last(monkeypatch, bess_enabled,
                                                 tmp_path):
    # interval k books the pair decided at interval k-1, idle at k = 0,
    # battery by battery in agent order; the last decision is never
    # booked, and a fleet that sits out books nothing
    booked = []
    real_apply_all = Fleet.apply_all

    def spy(self, u, shares):
        booked.extend(zip(self.batteries, u))
        return real_apply_all(self, u, shares)

    monkeypatch.setattr(Fleet, "apply_all", spy)
    cfg = short_config(duration=15.0, bess_enabled=bess_enabled)
    r = ScenarioRunner(cfg).run(str(tmp_path))
    n = cfg.fleet.n
    decided = [(0.0, 0.0)] * n + list(zip(r.d[:-1].ravel().tolist(),
                                          r.c[:-1].ravel().tolist()))
    assert len(decided) == cfg.intervals * n
    assert [pair for _, pair in booked] == (decided if bess_enabled else [])
    assert [b for b, _ in booked] == r.fleet.batteries * (
        cfg.intervals if bess_enabled else 0)
    assert r.d.any() == bess_enabled  # the booked pairs are not all idle


def test_infos_rebuild_the_optimizer_log(monkeypatch, tmp_path):
    # a short step run whose frequency spike restarts the stage
    logged = []
    real_iterate = OrraOptimizer.iterate

    def spy(self, *args):
        u_next, info = real_iterate(self, *args)
        logged.append({key: np.copy(v) for key, v in info.items()})
        return u_next, info

    monkeypatch.setattr(OrraOptimizer, "iterate", spy)
    r = ScenarioRunner(short_config(duration=15.0)).run(str(tmp_path))
    assert len(r.infos) == len(logged) == len(r.time)
    assert sum(info["reset"] for info in logged) >= 2
    for k, want in enumerate(logged):
        got = r.infos[k]
        assert list(got) == list(want)
        for key, value in want.items():
            assert np.array_equal(got[key], value), (k, key)
            assert np.shape(got[key]) == np.shape(value)
    assert r.infos and r.infos[-1]["stage"] == logged[-1]["stage"]
    assert [info["t"] for info in r.infos] == [int(v["t"]) for v in logged]
    assert [i["t"] for i in r.infos[-3:]] == [v["t"] for v in logged[-3:]]
    with pytest.raises(IndexError):
        r.infos[len(logged)]
    stages = r.stages
    assert stages[0][1] == 0 and stages[-1][2] == len(logged)
    for sid, lo, hi in stages:
        assert all(logged[k]["stage"] == sid for k in range(lo, hi))


@pytest.mark.parametrize("kind,change,oracle", [
    ("step", {}, True),
    # hold windows that end inside intervals
    ("fluctuation", {"fluct_hold": 0.25}, False),
    ("step", {"signal": "ACE"}, False),
    ("step", {"bess_enabled": False}, False),
], ids=["step_oracle", "fluctuation", "ace", "fleet_off"])
def test_step_matches_the_pass_by_pass_reference(kind, change, oracle,
                                                 tmp_path):
    cfg = short_config(kind=kind, duration=60.0, **change)
    runs = [runner(cfg, oracle_every=oracle).run(
                str(tmp_path / runner.__name__))
            for runner in (ScenarioRunner, ReferenceRunner)]
    got, want = (r.table for r in runs)
    assert got.shape == want.shape
    for k in range(len(got)):
        assert got[k].tobytes() == want[k].tobytes(), k
    assert len(got) == cfg.intervals
    assert runs[0].reset.sum() >= 2 or not cfg.bess_enabled
    assert [repr(b.lifetime_loss) for b in runs[0].fleet.batteries] == [
        repr(b.lifetime_loss) for b in runs[1].fleet.batteries]
    assert runs[0].oracle_clamped == runs[1].oracle_clamped


@pytest.mark.parametrize("kind,change,mixed", [
    ("step", {"step_time": 10.05}, 1),
    # off the plant's time grid: only the last plant step of the interval
    # from 8.5 s reaches it
    ("step", {"step_time": 8.59}, 1),
    # the 22 odd quarter seconds of 11 s fall mid-interval
    ("fluctuation", {"fluct_hold": 0.25}, 22),
], ids=["step", "step_off_grid", "fluctuation"])
def test_every_plant_step_sees_the_profile_at_its_time(kind, change, mixed,
                                                       monkeypatch, tmp_path):
    # a hold window that is not a whole number of intervals, and steps
    # that land inside an interval, so the load changes between plant
    # steps of one interval
    cfg = short_config(kind=kind, duration=11.0, bess_enabled=False,
                       **change)
    grid_calls, draws = [], []
    real_grid, real_draw = scenario.grid_step, scenario.scenario_fluctuation

    def spy_grid(plant, p_bess, agc_errors, loads):
        grid_calls.append(list(loads))
        return real_grid(plant, p_bess, agc_errors, loads)

    def spy_draw(t, *args):
        draws.append(t)
        return real_draw(t, *args)

    monkeypatch.setattr(scenario, "grid_step", spy_grid)
    monkeypatch.setattr(scenario, "scenario_fluctuation", spy_draw)
    r = ScenarioRunner(cfg).run(str(tmp_path))

    def direct(t):
        if kind == "step":
            return cfg.step_mw if t >= cfg.step_time else 0.0
        return scenario_fluctuation(
            t, cfg.seed, cfg.fluct_hold, cfg.fluct_low, cfg.fluct_high
        )

    assert len(grid_calls) == cfg.intervals == len(r.dist)
    for k, loads in enumerate(grid_calls):
        t0 = k * cfg.tau
        assert loads == [direct(t0 + j * cfg.dt_inner)
                         for j in range(cfg.inner_steps)]
        assert all(type(load) is float for load in loads)
        assert r.dist[k] == direct(t0 + cfg.tau)
    assert sum(len(set(loads)) > 1 for loads in grid_calls) == mixed
    if kind == "fluctuation":  # one draw per hold window, 0 s to 11 s
        windows = [int(t // cfg.fluct_hold) for t in draws]
        assert windows == list(range(45))


def test_zero_mean_reserve_provision_over_30_minutes(monkeypatch, tmp_path):
    # Zero-mean duty that the plant can actually follow: antithetic
    # segment pairs make the profile average exactly zero at every scale,
    # and the 1.6 MW segment-to-segment swing stays well inside what the
    # generators can slew over one hold. The learned-correction signal
    # then carries no systematic offset. The runner draws the configured
    # fluctuation once per hold window, so the antithetic draw stands in
    # for it.
    cfg = ScenarioConfig(
        name="zero_mean", kind="fluctuation", duration=1800.0,
        fluct_low=-0.8, fluct_high=0.8,
    )
    hold = cfg.fluct_hold

    def antithetic(t):
        k = int(t // hold)
        base = scenario_fluctuation(
            (k - k % 2) * hold, cfg.seed, hold, cfg.fluct_low, cfg.fluct_high
        )
        return base if k % 2 == 0 else -base

    samples = [antithetic(0.1 * j) for j in range(18000)]
    assert abs(np.mean(samples)) < 1e-12

    monkeypatch.setattr(scenario, "scenario_fluctuation",
                        lambda t, *draw: antithetic(t))
    r = ScenarioRunner(cfg).run(str(tmp_path))
    assert np.array_equal(r.dist, [antithetic(t) for t in r.time])
    sig = r.signal_total
    assert abs(sig.mean()) <= 0.05 * sig.std()


def test_run_scenario_writes_trace(tmp_path):
    cfg = short_config(duration=5.0)
    r = run_scenario(cfg, out_dir=str(tmp_path))
    assert r.trace_path.endswith("short.csv")
    with open(r.trace_path) as fh:
        assert fh.readline().startswith("# schema: ")
        header = fh.readline().strip().split(",")
    assert header[0] == "time"
    assert len(r.time) == 50


def test_record_is_one_table_written_without_a_copy(tmp_path):
    cfg = short_config(duration=60.0)
    r = ScenarioRunner(cfg).run(str(tmp_path))
    rows, n = cfg.intervals, cfg.fleet.n
    views = [f.source for f in scenario.TRACE_SPEC]
    for name in views + ["s", "interior"]:
        assert np.shares_memory(getattr(r, name), r.table), name
    assert r.time.shape == (rows,) and r.df.shape == (rows, 2)
    assert r.lam.shape == (rows, n) and r.s.shape == (rows, n, 2)
    # the int and bool groups are whole-number floats of the table
    for name, shape in (
        ("modes", (rows, n)), ("stage", (rows,)), ("t", (rows,)),
        ("surrogate_m", (rows,)), ("reset", (rows,)),
        ("interior", (rows, n)),
    ):
        arr = getattr(r, name)
        assert arr.shape == shape and (arr == np.round(arr)).all(), name
    for name in ("modes", "reset", "interior"):
        assert np.isin(getattr(r, name), (0.0, 1.0)).all(), name
    assert r.reset.any() and r.interior.any() and r.surrogate_m.max() > 0

    # the writer formats the table's leading columns in place: the copy
    # it used to make alone was 74 of every row's 89 floats
    tracemalloc.start()
    try:
        path = scenario.write_trace_csv(r, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < r.table.nbytes / 4, (peak, r.table.nbytes)
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert np.allclose(data, r.table[:, :data.shape[1]], rtol=1e-11, atol=0)


@pytest.mark.parametrize("case", [
    "fleet_off", "one_row", "negative_zero", "last_row_differs",
])
def test_trace_bytes_are_savetxts(case, tmp_path):
    # the writer formats a column that holds one value in every row once;
    # what it writes is what np.savetxt writes of the same table
    cfg = short_config(duration=0.1 if case == "one_row" else 20.0,
                       bess_enabled=case != "fleet_off")
    r = ScenarioRunner(cfg).run(str(tmp_path))
    header, where = scenario.trace_columns(cfg.fleet.n,
                                           len(cfg.grid.inv_droops))
    table = r.table[:, :len(header)]
    if case == "negative_zero":
        table[:, where["p_bess"]] = -0.0
    if case == "last_row_differs":
        table[:, where["kappa"]] = 0.3
        table[-1, where["kappa"]] = 0.7
    bits = table.view(np.uint64)
    constant = int((bits == bits[0]).all(axis=0).sum())
    if case == "fleet_off":
        assert constant == 58
    if case == "one_row":
        assert constant == len(header)
    path = scenario.write_trace_csv(r, str(tmp_path))
    with open(path) as fh:
        fh.readline(), fh.readline()
        body = fh.read()
    expect = io.StringIO()
    np.savetxt(expect, table, fmt="%.12g", delimiter=",")
    assert body == expect.getvalue()
    lines = body.splitlines()
    assert len(lines) == cfg.intervals
    cells = lines[-1].split(",")
    if case == "negative_zero":
        assert cells[header.index("p_bess")] == "-0"
    if case == "last_row_differs":
        assert cells[header.index("kappa")] == "0.7"
        assert lines[-2].split(",")[header.index("kappa")] == "0.3"


def test_reference_solution_views_the_table(tmp_path):
    cfg = short_config(duration=12.0)
    r = ScenarioRunner(cfg, oracle_every=True).run(str(tmp_path))
    for name in ("f_oracle", "u_star"):
        assert np.shares_memory(getattr(r, name), r.table), name
    assert r.u_star.shape == (cfg.intervals, cfg.fleet.n, 2)
    assert r.f_oracle[-1] > 0 and r.u_star[-1].any()


def test_verify_trace_peak_memory_near_the_parsed_array(tmp_path):
    cfg = replace(ScenarioConfig.from_json("configs/fluctuation.json"),
                  duration=60.0)
    path = run_scenario(cfg, out_dir=str(tmp_path)).trace_path
    tracemalloc.start()
    try:
        report = scenario.verify_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"] and report["rows"] == 600
    with open(path) as fh:
        fh.readline()
        width = len(fh.readline().split(","))
    array_bytes = 600 * width * 8
    assert peak < 2 * array_bytes, (peak, array_bytes)
