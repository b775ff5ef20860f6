"""Tests for battery SoC stepping, mode selection, and projection."""
import numpy as np
import pytest

from orra.bess import (
    Battery,
    BessParams,
    BessState,
    Decision,
    Fleet,
    SocViolationError,
    feasible_interval,
    mode_select,
    project,
    soc_step,
)


def test_params_validation():
    with pytest.raises(ValueError):
        BessParams(soc_min=0.8, soc_max=0.2)
    with pytest.raises(ValueError):
        BessParams(capacity=0.0)
    with pytest.raises(ValueError):
        BessParams(eta_c=0.0)
    for bad in (float("nan"), float("inf")):
        for name in ("capacity", "charge_limit", "discharge_limit", "eta_c",
                     "eta_d", "soc_min", "soc_max", "theta_a", "theta_b"):
            with pytest.raises(ValueError):
                BessParams(**{name: bad})


def test_soc_step_no_power_no_change():
    p = BessParams()
    assert soc_step(BessState(0.5), 0, 0, p, 0.1) == 0.5


def test_soc_step_discharge_hand_value():
    # 1 MW for 360 s from a 2 MWh battery at eta_d 0.95 drains 0.1/(0.95*2)
    p = BessParams(capacity=2.0, eta_d=0.95, soc_min=0.0, soc_max=1.0)
    got = soc_step(BessState(0.5), 0, 1.0, p, 360.0)
    assert got == pytest.approx(0.5 - 0.1 / (0.95 * 2.0))
    assert got == pytest.approx(0.447368, abs=1e-6)


def test_soc_step_charge_hand_value():
    p = BessParams(capacity=2.0, eta_c=0.95, soc_min=0.0, soc_max=1.0)
    got = soc_step(BessState(0.5), 1.0, 0, p, 0.1)
    assert got == pytest.approx(0.5 + 0.95 * (0.1 / 3600.0) / 2.0)
    assert got == pytest.approx(0.500013194, abs=1e-9)


def test_soc_step_rejects_simultaneous_power():
    with pytest.raises(ValueError):
        soc_step(BessState(0.5), 1.0, 1.0, BessParams(), 0.1)


def test_soc_step_raises_on_violation():
    p = BessParams(soc_min=0.2, soc_max=0.8)
    with pytest.raises(SocViolationError):
        soc_step(BessState(0.21), 0, 1.0, p, 3600.0)


def test_round_trip_returns_eta_squared_of_input_energy():
    # store energy then drain SoC back to the start: the grid gets back
    # exactly eta_c*eta_d of what it put in
    p = BessParams(capacity=2.0, soc_min=0.0, soc_max=1.0)
    s = BessState(0.5)
    energy_in = 1.0 * 0.1  # 1 MW for 0.1 h
    s.soc = soc_step(s, 1.0, 0, p, 360.0)
    d_out = p.eta_c * p.eta_d * 1.0
    s.soc = soc_step(s, 0, d_out, p, 360.0)
    assert s.soc == pytest.approx(0.5, abs=1e-12)
    energy_out = d_out * 0.1
    assert energy_out / energy_in == pytest.approx(1 - (1 - 0.95**2))


def test_mode_select_signs():
    assert mode_select(3.0) == 1
    assert mode_select(-3.0) == 0
    assert mode_select(0.0, prev_mode=1) == 1
    assert mode_select(0.0, prev_mode=0) == 0


def test_mode_select_flipped_direction():
    assert mode_select(3.0, direction=-1) == 0
    assert mode_select(-3.0, direction=-1) == 1


def test_mode_select_non_generator_bus_copies_neighbor():
    assert mode_select(5.0, neighbor_modes=[0], is_generator_bus=False) == 0
    assert mode_select(5.0, neighbor_modes=[None, 1], is_generator_bus=False) == 1
    assert mode_select(5.0, neighbor_modes=[], is_generator_bus=False, prev_mode=0) == 0


def test_feasible_interval_at_soc_floor_and_ceiling():
    p = BessParams(soc_min=0.2, soc_max=0.8)
    assert feasible_interval(BessState(0.2), 1, p, 0.1) == (0.0, 0.0)
    assert feasible_interval(BessState(0.8), 0, p, 0.1) == (0.0, 0.0)


def test_feasible_interval_power_limited():
    p = BessParams(capacity=2.0, eta_d=0.95, soc_min=0.2, discharge_limit=1.0)
    lo, hi = feasible_interval(BessState(0.5), 1, p, 360.0)
    assert lo == 0.0
    # SoC headroom allows 0.3*0.95*2/0.1 = 5.7 MW; the 1 MW limit binds
    assert hi == pytest.approx(1.0)


def test_feasible_interval_soc_limited():
    p = BessParams(capacity=2.0, eta_d=1.0, soc_min=0.45, discharge_limit=1.0)
    _, hi = feasible_interval(BessState(0.5), 1, p, 3600.0)
    assert hi == pytest.approx(0.1)


def test_project_clamps_and_zeroes():
    assert project(Decision(1.5, 0.0), (0.0, 1.0), 1) == Decision(1.0, 0.0)
    assert project(Decision(0.4, 0.0), (0.0, 1.0), 1) == Decision(0.4, 0.0)
    assert project(Decision(0.0, 0.7), (0.0, 1.0), 1) == Decision(0.0, 0.0)
    assert project(Decision(0.3, 0.0), (0.0, 1.0), 0) == Decision(0.0, 0.0)


def test_project_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = Decision(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
        mode = int(rng.integers(0, 2))
        box = (0.0, float(rng.uniform(0, 2)))
        once = project(u, box, mode)
        assert project(once, box, mode) == once


def test_project_is_nearest_feasible_point():
    # brute-force the feasible segment on a fine grid and check the
    # projection is never beaten by more than grid resolution
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = Decision(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
        mode = int(rng.integers(0, 2))
        hi = float(rng.uniform(0.1, 2))
        best = project(u, (0.0, hi), mode)
        grid = np.arange(0.0, hi + 1e-9, 1e-3)
        if mode == 1:
            dists = (grid - u.d) ** 2 + u.c**2
            got = (best.d - u.d) ** 2 + u.c**2
        else:
            dists = (grid - u.c) ** 2 + u.d**2
            got = (best.c - u.c) ** 2 + u.d**2
        assert got <= dists.min() + 1e-6


def test_decision_stacked_sign():
    u = Decision(0.0, 0.7)
    assert np.allclose(u.stacked, [0.0, -0.7])


def test_battery_apply_tracks_soc_and_loss():
    p = BessParams(soc_min=0.0, soc_max=1.0, capacity=2.0)
    b = Battery(p, BessState(0.5))
    b.apply(1.0, 0.0, 360.0)
    assert b.state.soc == pytest.approx(0.5 - 0.1 / (0.95 * 2))
    b.apply(0.0, 1.0, 360.0)
    b.apply(0.0, 1.0, 360.0)
    # rising past the start closed the dip: some lifetime loss accrues
    assert b.lifetime_loss > 0.0
    assert len(b.residues) >= 1


def test_battery_never_leaves_soc_box_under_projected_decisions():
    rng = np.random.default_rng(3)
    p = BessParams()
    b = Battery(p, BessState(0.5))
    tau = 60.0
    for _ in range(500):
        b.state.mode = int(rng.integers(0, 2))
        lo, hi = b.feasible(tau)
        u = float(rng.uniform(0, 2))
        dec = project(Decision(u, u), (lo, hi), b.state.mode)
        assert dec.d * dec.c == 0.0
        b.apply(dec.d, dec.c, tau)
        assert p.soc_min <= b.state.soc <= p.soc_max


def test_fleet_wiring():
    p = BessParams()
    fleet = Fleet([Battery(p, BessState(0.5)) for _ in range(3)])
    assert fleet.n == 3
    fleet.set_modes([2.0, -2.0, 0.0], direction=1)
    assert list(fleet.modes) == [1, 0, 1]
    fleet.set_modes([2.0, -2.0, 0.0], direction=-1)
    assert list(fleet.modes) == [0, 1, 1]  # zero share holds previous mode
    d, c = fleet.project_all(np.array([0.5, 0.5, -0.2]), np.array([0.2, 0.4, 0.1]), 0.1)
    assert (d * c == 0).all()
    fleet.apply_all(d, c, 0.1)
    assert np.allclose(fleet.soc, 0.5, atol=1e-4)
