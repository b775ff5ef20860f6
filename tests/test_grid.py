"""Two-area plant: droop loads, generator limits, coupling, scenarios."""
import json
import os
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

import orra.grid
import plant_reference as ref
from orra.grid import (
    DF_LIMIT,
    GridInstabilityError,
    Plant,
    grid_step,
    responsive_load,
    scenario_fluctuation,
)
from orra.scenario import GridConfig
from plant_reference import (
    frr_response,
    scenario_step_load,
    set_state,
    state_of,
)

NAN, INF = float("nan"), float("inf")
GRID = GridConfig()  # the shipped plant, droop included
DT = 0.01


def test_sectional_droop_values():
    # the config's droop: 40 MW/Hz beyond a 0.002 Hz deadband
    assert responsive_load(0.0, GRID) == 0.0
    assert responsive_load(0.0015, GRID) == 0.0  # inside the deadband
    assert responsive_load(-0.05, GRID) == pytest.approx(1.92)
    for df in (0.02, 0.013, 0.11):
        assert responsive_load(-df, GRID) == pytest.approx(
            -responsive_load(df, GRID))


def test_bias_is_damping_plus_droop_slopes():
    assert GRID.bias == pytest.approx(61.0)


def hold_frequency(grid, command, steps, dt=DT):
    """Area 1's generator lags under a fixed command, frequency held at 0.

    Area 1's AGC commands are set to `command` with a zero error so they
    stay put; area 2 rests. Each one-step interval's net load matches the
    mechanical power the swing equation sees, so df, and with it the tie
    flow, stays exactly zero. Returns area 1's (gov, p_m).
    """
    cmd = tuple(float(c) for c in command)
    rest = (0.0,) * len(cmd)
    plant = set_state(Plant(grid, dt), du_gov=(cmd, rest))
    for _ in range(steps):
        grid_step(plant, 0.0, (0.0, 0.0), [sum(plant.p_m[0])])
        state = state_of(plant)
        assert state["df"] == (0.0, 0.0) and state["du_gov"] == (cmd, rest)
    assert state["gov"][1] == state["p_m"][1] == rest
    assert state["p_tie"] == 0.0
    return np.array(state["gov"][0]), np.array(state["p_m"][0])


def test_governor_rest_state():
    gov, p_m = hold_frequency(GRID, np.zeros(3), 100)
    assert np.all(gov == 0.0) and np.all(p_m == 0.0)


def test_governor_unity_dc_gain():
    # no limits active: 1 MW command settles at 1 MW output
    grid = GridConfig(inv_droops=(20.0,), ramp_limit=1e3)
    gov, p_m = hold_frequency(grid, [1.0], 1000)
    assert p_m[0] == pytest.approx(1.0, abs=1e-6)


def test_ramp_limited_unit_takes_100s_for_2_7mw():
    grid = GridConfig(inv_droops=(20.0,), ramp_limit=0.027)
    gov, p_m = hold_frequency(grid, [10.0], 10000)  # 100 s at dt = 0.01
    assert p_m[0] == pytest.approx(2.7, rel=0.02)


def test_nonlinearity_engages_on_large_command():
    # the rate limiter must bend the trajectory well away from the lags alone
    grid = GridConfig(inv_droops=(20.0,))
    free = GridConfig(inv_droops=(20.0,), ramp_limit=1e9, saturation=1e9)
    gov, p_m = hold_frequency(grid, [10.0], 5000)
    gov_f, p_m_f = hold_frequency(free, [10.0], 5000)
    assert abs(p_m[0] - p_m_f[0]) > 0.1 * abs(p_m_f[0])


def test_zero_state_stays_zero():
    plant = Plant(GRID, DT)
    for _ in range(20):
        grid_step(plant, 0.0, (0.0, 0.0), [0.0] * 10)
    assert np.all(np.array(plant.df) == 0.0)
    assert plant.p_tie == 0.0
    assert np.all(np.array(plant.p_m) == 0.0)
    assert np.all(np.array(plant.p_fr) == 0.0)


def test_steady_state_frequency_with_droop_load():
    # a 5 MW step in area 1, no AGC: the tie line holds both areas at one
    # df, and the system balances 0 = -2*(D + sum(1/R))*df + frr(df) - 5
    # with governors at full droop. With frr = -slope*(df + deadband) below
    # the deadband this gives
    # df = -(5 + slope*deadband) / (2*(D + sum(1/R)) + slope),
    # and area 2 exports its governors' and damping's share over the tie.
    # The ramp limit is raised so it never binds: at the shipped 0.009 MW/s
    # the two areas' turbines swing in a limit cycle about this point.
    plant = Plant(GridConfig(k_i=0.0, ramp_limit=1.0), DT)
    for _ in range(6000):  # 600 s, past the tie line's settling
        grid_step(plant, 0.0, (0.0, 0.0), [5.0] * 10)
    expected = -(5.0 + 40.0 * 0.002) / (2 * (1.0 + 60.0) + 40.0)
    assert plant.df[0] == pytest.approx(expected, abs=1e-4)
    assert plant.df[1] == pytest.approx(expected, abs=1e-4)
    assert plant.p_tie == pytest.approx(61.0 * expected, abs=1e-3)


def test_small_signal_linearity():
    # small enough that limiters and the deadband never engage
    def run(scale):
        plant = Plant(GRID, DT)
        out = []
        for _ in range(2000):
            grid_step(plant, 0.0, (0.0, 0.0), [0.002 * scale])
            out.append(list(plant.df))
        return np.array(out)

    one = run(1.0)
    two = run(2.0)
    scale = np.abs(one).max()
    assert np.abs(two - 2.0 * one).max() <= 1e-6 * scale


def test_tie_line_couples_areas():
    plant = Plant(GRID, DT)
    for _ in range(100):
        grid_step(plant, 0.0, (0.0, 0.0), [5.0] * 10)
    # area-2 frequency is dragged down through the tie line
    assert plant.df[1] < -1e-4
    assert plant.p_tie < -1e-3  # power flows from area 2 into area 1


def test_swing_equation_bookkeeping():
    plant = Plant(GRID, DT)
    rng = np.random.default_rng(2)
    for _ in range(500):
        dist = rng.uniform(0, 5)
        bess = rng.uniform(-1, 1)
        agc = (rng.uniform(-2, 2), 0.0)
        state = state_of(plant)
        grid_step(plant, bess, agc, [dist])
        # area 1 takes the injection, the load and the droop; area 2 only
        # the tie flow
        injected = (bess + responsive_load(state["df"][0], GRID) - dist, 0.0)
        for a in range(2):
            accel = (
                sum(state["p_m"][a]) + injected[a]
                - GRID.damping * state["df"][a]
                + (-1.0, 1.0)[a] * state["p_tie"]
            )
            residual = ((plant.df[a] - state["df"][a]) / DT
                        - accel / GRID.inertia)
            assert abs(residual) < 1e-12


def test_instability_is_named():
    plant = set_state(Plant(GRID, DT), df=(NAN, 0.0))
    with pytest.raises(GridInstabilityError) as err:
        grid_step(plant, 0.0, (0.0, 0.0), [0.0] * 10)
    assert "df" in str(err.value)


def test_finite_divergence_is_named():
    # a 1e6 MW step drives df far past any grid's range, yet finite
    with pytest.raises(GridInstabilityError) as err:
        grid_step(Plant(GRID, DT), 0.0, (0.0, 0.0), [1e6] * 10)
    assert err.value.name == "df"
    assert -INF < err.value.value <= -DF_LIMIT
    assert str(err.value).startswith(f"df reached {err.value.value:.6g} Hz")
    # either area, either sign, still past the bound when the interval
    # ends (area 1's droop load pulls df back); inside it the interval runs
    for df in ((2 * DF_LIMIT, 0.0), (0.0, -DF_LIMIT - 1)):
        with pytest.raises(GridInstabilityError) as err:
            grid_step(set_state(Plant(GRID, DT), df=df), 0.0, (0.0, 0.0),
                      [0.0])
        assert abs(err.value.value) >= DF_LIMIT
    plant = set_state(Plant(GRID, DT), df=(0.9 * DF_LIMIT, -0.9 * DF_LIMIT))
    grid_step(plant, 0.0, (0.0, 0.0), [0.0])
    assert max(map(abs, plant.df)) < DF_LIMIT


def random_grid(rng, alike=False):
    """A plant section with every leaf drawn: one to four generators,
    limits that engage, and both areas regulating; with `alike`, every
    generator has the same droop."""
    n = int(rng.integers(1, 5))
    droops = rng.uniform(5.0, 25.0, 1 if alike else n).tolist()
    return GridConfig(
        inertia=rng.uniform(5.0, 20.0), damping=rng.uniform(0.5, 2.0),
        inv_droops=tuple(droops * (n if alike else 1)),
        t_gov=rng.uniform(0.1, 0.4), t_turb=rng.uniform(0.3, 1.0),
        ramp_limit=10.0 ** rng.uniform(-2.5, 1.0),
        saturation=rng.uniform(0.3, 1.5), k_i=rng.uniform(0.0, 0.5),
        k_i_area2=rng.uniform(0.01, 0.5), t_sync=rng.uniform(2.0, 20.0),
        frr_deadband=rng.uniform(0.002, 0.02),
        frr_slope=rng.uniform(10.0, 60.0),
    )


def random_state(rng, grid, alike=False):
    """A state off rest, by group name as `set_state` takes it; with
    `alike`, each area's generators alike."""
    n = len(grid.inv_droops)

    def rows(scale):
        if alike:
            return tuple((v * scale,) * n
                         for v in rng.uniform(-1.0, 1.0, 2).tolist())
        return tuple(tuple((rng.uniform(-1.0, 1.0, n) * scale).tolist())
                     for _ in range(2))

    return {
        "df": tuple(rng.uniform(-0.05, 0.05, 2).tolist()),
        "du_gov": rows(grid.saturation), "gov": rows(3.0),
        "p_m": rows(grid.saturation), "p_tie": rng.uniform(-1.0, 1.0),
        "p_fr": (0.0, 0.0),
    }


def engaged(state: ref.RefState, grid, agc_errors, dt) -> set:
    """The nonlinearities and couplings the next reference step exercises."""
    out = set()
    if state.p_tie != 0.0 and state.df[0] != state.df[1]:
        out.add("tie line")
    k = len(grid.inv_droops)
    step = grid.ramp_limit * dt
    for a, k_i in enumerate((grid.k_i, grid.k_i_area2)):
        delta = -dt * k_i * np.full(k, 1.0 / k) * agc_errors[a]
        if (np.abs(delta) > step).any():
            out.add("command slew")
        command = state.du_gov[a] + np.clip(delta, -step, step)
        rate = (state.gov[a] - state.p_m[a]) / grid.t_turb
        if (np.abs(rate) > grid.ramp_limit).any():
            out.add("ramp limit")
        output = state.p_m[a] + dt * np.clip(
            rate, -grid.ramp_limit, grid.ramp_limit
        )
        if (np.abs(command) > grid.saturation).any():
            out.add("command saturation")
        if (np.abs(output) > grid.saturation).any():
            out.add("output saturation")
    # only area 1 carries the droop
    df, band = state.df[0], grid.frr_deadband
    out.add("droop below" if df < -band else "droop above"
            if df > band else "inside deadband")
    return out


def spy_routes(monkeypatch) -> list:
    """Record the route each grid_step call takes: "alike", one unit per
    area, or "units", generator by generator."""
    routes = []
    for route in ("alike", "units"):
        real = getattr(orra.grid, f"_step_{route}")

        def spy(*args, real=real, route=route):
            routes.append(route)
            return real(*args)

        monkeypatch.setattr(orra.grid, f"_step_{route}", spy)
    return routes


def test_kernel_matches_per_step_reference(monkeypatch):
    rng = np.random.default_rng(11)
    seen = {}
    routes = spy_routes(monkeypatch)
    for _ in range(40):
        # half the plants run alike units, put into an alike state
        alike = bool(rng.integers(2))
        grid = random_grid(rng, alike)
        dt = float(rng.choice([0.005, 0.01, 0.02]))
        state = random_state(rng, grid, alike)
        plant = set_state(Plant(grid, dt), **state)
        for _ in range(15):
            steps = int(rng.integers(1, 13))
            p_bess = rng.uniform(-2.0, 2.0)
            agc = tuple(rng.uniform(-5.0, 5.0, 2).tolist())
            loads = rng.uniform(-8, 8, steps).tolist()
            expect = ref.RefState.from_state(state_of(plant))
            for load in loads:
                for name in engaged(expect, grid, agc, dt):
                    seen[name] = seen.get(name, 0) + 1
                expect = ref.grid_step(expect, p_bess, agc, load, grid, dt)
            grid_step(plant, p_bess, agc, loads)
            assert state_of(plant) == expect.to_state()
    assert sorted(seen) == sorted([
        "command saturation", "command slew", "droop above", "droop below",
        "inside deadband", "output saturation", "ramp limit", "tie line",
    ])
    assert min(seen.values()) >= 20, seen
    # both routes of the kernel were taken, each many times
    assert min(routes.count("alike"), routes.count("units")) >= 150, routes


def state_bits(state: dict) -> bytes:
    """Every float of a state, as its bytes: signed zeros count."""
    values = [*state["df"], state["p_tie"], *state["p_fr"]]
    for group in ("du_gov", "gov", "p_m"):
        values += [v for row in state[group] for v in row]
    return struct.pack(f"{len(values)}d", *values)


def run_both(plant, grid, intervals, steps=10, agc=(-0.4, 0.3)):
    """Run the kernel and the per-step reference over the same intervals
    of the case study's step; returns both end states."""
    expect = ref.RefState.from_state(state_of(plant))
    for k in range(intervals):
        loads = [scenario_step_load(9.0 + (k * steps + j) * DT)
                 for j in range(steps)]
        for load in loads:
            expect = ref.grid_step(expect, 0.2, agc, load, grid, DT)
        grid_step(plant, 0.2, agc, loads)
    return state_of(plant), expect.to_state()


@pytest.mark.parametrize("n", [1, 3, 4, 7])
def test_alike_units_match_the_reference(n, monkeypatch):
    # a run from rest with one droop value: every call finds the units
    # alike, and integrates one unit per area. Seven units tell the sum
    # of a value added seven times from 0.0 from 7 times the value, which
    # differ in the last bit here
    routes = spy_routes(monkeypatch)
    grid = GridConfig(inv_droops=(20.0,) * n, k_i_area2=0.1)
    state, expect = run_both(Plant(grid, DT), grid, 200)
    assert routes == ["alike"] * 200
    assert state == expect
    assert state_bits(state) == state_bits(expect)
    assert state["p_m"][0][0] != 0.0  # the step moved the generators


def test_units_are_alike_exactly_when_every_droop_is_equal():
    # droops are positive and finite, so equal values, 20 and 20.0 among
    # them, are one droop
    for droops, alike in (((20.0,), True), ((20, 20.0, 20), True),
                          ((20.0, 20.0, 22.0), False),
                          ((18.0, 20.0, 22.0), False)):
        assert Plant(GridConfig(inv_droops=droops), DT).alike is alike


def test_distinct_droops_take_the_per_unit_loop(monkeypatch):
    # units that differ only in their droop start alike at rest and part
    # at the first step with a nonzero df
    routes = spy_routes(monkeypatch)
    grid = GridConfig(inv_droops=(18.0, 20.0, 22.0), k_i_area2=0.1)
    state, expect = run_both(Plant(grid, DT), grid, 150)
    assert routes == ["units"] * 150
    assert state_bits(state) == state_bits(expect)
    assert len(set(state["gov"][0])) == 3


@pytest.mark.parametrize("steps", [1, 10])
@pytest.mark.parametrize("field,where,bad", [
    ("agc", 0, NAN), ("agc", 1, NAN),
    ("gov", 0, NAN), ("gov", 1, INF), ("gov", 0, -INF),
    ("df", 0, NAN), ("df", 0, INF), ("df", 1, -INF),
])
def test_non_finite_values_raise_at_interval_end(steps, field, where, bad):
    grid = GridConfig(k_i_area2=0.1)  # area 2's error reaches its commands
    plant = Plant(grid, DT)
    for _ in range(5):  # leave the rest state
        grid_step(plant, 0.3, (-1.0, 0.2), [5.0] * 10)
    state = state_of(plant)
    agc = [-1.0, 0.2]
    if field == "agc":
        agc[where] = bad
    elif field == "gov":
        # every unit of the area, as the plant's alike units hold it
        gov = list(state["gov"])
        gov[where] = (bad,) * len(gov[where])
        state["gov"] = tuple(gov)
    else:
        df = list(state["df"])
        df[where] = bad
        state["df"] = tuple(df)
    loads = [5.0] * steps
    # the per-step reference stops somewhere inside the interval ...
    with pytest.raises(GridInstabilityError), np.errstate(invalid="ignore"):
        expect = ref.RefState.from_state(state)
        for load in loads:
            expect = ref.grid_step(expect, 0.3, agc, load, grid, DT)
    # ... and the kernel, on a plant put into that state, at its end
    with pytest.raises(GridInstabilityError) as err:
        grid_step(set_state(Plant(grid, DT), **state), 0.3, agc, loads)
    assert err.value.name in ("df", "du_gov", "gov", "p_m", "p_fr", "p_tie")


def test_step_load_scenario():
    assert scenario_step_load(9.9) == 0.0
    assert scenario_step_load(10.1) == 5.0
    assert scenario_step_load(0.0) == 0.0


def test_fluctuation_scenario_deterministic_and_bounded():
    def draw(t, seed):  # the shipped profile: 60 s holds within +-6 MW
        return scenario_fluctuation(t, seed, 60.0, -6.0, 6.0)

    vals = [draw(t, 42) for t in (0, 30, 60, 125, 500)]
    again = [draw(t, 42) for t in (0, 30, 60, 125, 500)]
    assert vals == again
    assert all(-6.0 <= v <= 6.0 for v in vals)
    # same hold window, same value; new window redraws
    assert draw(0.0, 7) == draw(59.9, 7)
    windows = {draw(60.0 * k, 7) for k in range(8)}
    assert len(windows) > 1
    assert frr_response(-0.05, GRID) == pytest.approx(1.92)


def test_fluctuation_draw_is_numpys_stream():
    # the profile is computed without numpy, and equals its stream by ==
    picks = random.Random(2024)
    seeds = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**200]
    seeds += [picks.getrandbits(70) for _ in range(15)]
    windows = [0, 1, 2**20] + [picks.randrange(2**20) for _ in range(22)]
    spans = [(-6.0, 6.0), (0.0, 1e-3), (-9.5, -2.25), (-4.0, -4.0),
             (3.5, 3.5)]
    cases = 0
    for seed in seeds:
        for k in windows:
            for low, high in spans:
                got = scenario_fluctuation(60.0 * k + 30.0, seed, 60.0,
                                           low, high)
                want = np.random.default_rng([seed, k]).uniform(low, high)
                assert got == want, (seed, k, low, high)
                cases += 1
    assert cases >= 2000


def test_fluctuation_run_loads_no_numpy_random(tmp_path):
    cfg = tmp_path / "noise.json"
    cfg.write_text(json.dumps({"name": "noise", "kind": "fluctuation",
                               "duration": 2.0, "fluct_hold": 0.5}))
    code = (
        "import sys\n"
        "from orra.cli import main\n"
        f"status = main(['run', {str(cfg)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}])\n"
        "loaded = {'numpy.random', '_hashlib'} & set(sys.modules)\n"
        "print(status, sorted(loaded))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "noise.csv").exists()
