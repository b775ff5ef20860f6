"""Tests for battery SoC stepping, mode selection, feasible boxes, and
the projection onto them: the fleet books, boxes and prices each battery
in `Fleet.apply_all`."""
import numpy as np
import pytest

import scenario_reference as reference
from orra.bess import SOC_TOL, Battery, Fleet, SocViolationError, check_soc_box
from orra.degradation import AGING, IntervalCost, cost_terms
from orra.optimizer import OrraOptimizer
from orra.scenario import FleetConfig, OptimizerConfig



def project(u, hi, mode):
    """The optimizer's projection of one agent's (d, c) onto its mode box
    [0, hi]: the primal step of a lone agent's iterate, with a zero
    saddle direction."""
    opt = OrraOptimizer(np.ones((1, 1)), OptimizerConfig())
    flat = IntervalCost(mode, hi, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0)
    (pair,), _ = opt.iterate([u], [flat], [0.0], 0.0, [0.5], [])
    return pair


def test_params_validation():
    # the SoC box spans two fields; single-field domains are the config's
    check_soc_box(0.2, 0.8)
    check_soc_box(0.0, 1.0)
    for box in ((0.8, 0.2), (0.5, 0.5), (-0.1, 0.8), (0.2, 1.1)):
        with pytest.raises(ValueError, match="0 <= soc_min < soc_max <= 1"):
            check_soc_box(*box)
    for bad in (float("nan"), float("inf")):
        for box in ((bad, 0.8), (0.2, bad)):
            with pytest.raises(ValueError):
                check_soc_box(*box)


def one_battery(soc=0.5, tau=0.1, **params):
    """A fleet of one battery at soc on tau-second intervals."""
    return Fleet(FleetConfig(initial_soc=(soc,), **params), tau)


def book(fleet, d, c, share=-1.0):
    """Book the pair (d, c) on a one-battery fleet with the given share:
    its SoC, mode and the top of its box after the booking."""
    (plan,) = fleet.apply_all([(d, c)], [share])
    return fleet.batteries[0].soc, plan.mode, plan.hi


def test_soc_step_no_power_no_change():
    assert book(one_battery(0.5), 0.0, 0.0)[0] == 0.5


def test_soc_step_discharge_hand_value():
    # 1 MW for 360 s from a 2 MWh battery at eta_d 0.95 drains 0.1/(0.95*2)
    fleet = one_battery(0.5, 360.0, capacity=2.0, eta_d=0.95, soc_min=0.0,
                        soc_max=1.0)
    got = book(fleet, 1.0, 0.0)[0]
    assert got == pytest.approx(0.5 - 0.1 / (0.95 * 2.0))
    assert got == pytest.approx(0.447368, abs=1e-6)


def test_soc_step_charge_hand_value():
    fleet = one_battery(0.5, 0.1, capacity=2.0, eta_c=0.95, soc_min=0.0,
                        soc_max=1.0)
    got = book(fleet, 0.0, 1.0)[0]
    assert got == pytest.approx(0.5 + 0.95 * (0.1 / 3600.0) / 2.0)
    assert got == pytest.approx(0.500013194, abs=1e-9)


def test_soc_step_rejects_simultaneous_power():
    with pytest.raises(ValueError, match="simultaneously"):
        book(one_battery(), 1.0, 1.0)


def test_soc_step_rejects_negative_power():
    for d, c in ((-1.0, 0.0), (0.0, -1.0), (-0.5, 0.5)):
        fleet = one_battery()
        with pytest.raises(ValueError, match="nonnegative"):
            book(fleet, d, c)
        assert fleet.soc == [0.5]  # refused before anything is booked


def test_soc_step_raises_on_violation():
    with pytest.raises(SocViolationError, match=r"outside \[0.2, 0.8\]"):
        book(one_battery(0.21, 3600.0, soc_min=0.2, soc_max=0.8), 1.0, 0.0)
    # NaN fails no single comparison with the box ends, nor passes the box
    nan = float("nan")
    for soc, c, d in ((0.5, 0.0, nan), (0.5, nan, 0.0), (nan, 0.0, 0.0)):
        fleet = one_battery(soc, soc_min=0.2, soc_max=0.8)
        with pytest.raises(SocViolationError, match="soc nan outside"):
            book(fleet, d, c)


def test_soc_past_the_box_within_tolerance_is_clamped():
    # a step that ends within SOC_TOL past a box end lands on the end; one
    # just beyond is refused
    tau = 0.1
    gain = tau / 3600.0 / (0.95 * 2.0)  # SoC per MW discharged
    for over, clamped in ((0.5 * SOC_TOL, True), (2.0 * SOC_TOL, False)):
        fleet = one_battery(0.2 + gain, tau, soc_min=0.2, soc_max=0.8)
        d = 1.0 + over / gain
        if clamped:
            assert book(fleet, d, 0.0) == (0.2, 1, 0.0)
        else:
            with pytest.raises(SocViolationError):
                book(fleet, d, 0.0)


def test_round_trip_returns_eta_squared_of_input_energy():
    # store energy then drain SoC back to the start: the grid gets back
    # exactly eta_c*eta_d of what it put in
    p = FleetConfig(capacity=2.0, soc_min=0.0, soc_max=1.0)
    fleet = one_battery(0.5, 360.0, capacity=2.0, soc_min=0.0, soc_max=1.0)
    energy_in = 1.0 * 0.1  # 1 MW for 0.1 h
    book(fleet, 0.0, 1.0)
    d_out = p.eta_c * p.eta_d * 1.0
    soc = book(fleet, d_out, 0.0)[0]
    assert soc == pytest.approx(0.5, abs=1e-12)
    energy_out = d_out * 0.1
    assert energy_out / energy_in == pytest.approx(1 - (1 - 0.95**2))


def test_mode_select_signs():
    # a short area (negative share) discharges, a surplus charges, and a
    # zero share (either sign) or a NaN one keeps the mode
    fleet = one_battery()
    got = [book(fleet, 0.0, 0.0, share)[1]
           for share in (0.0, 3.0, 0.0, -0.0, -3.0, -0.0, float("nan"))]
    assert got == [1, 0, 0, 0, 1, 1, 1]


def test_feasible_interval_at_soc_floor_and_ceiling():
    # a battery at its floor can discharge nothing, at its ceiling charge
    # nothing: the box closes on 0
    p = dict(soc_min=0.2, soc_max=0.8)
    assert book(one_battery(0.2, **p), 0.0, 0.0, -1.0)[1:] == (1, 0.0)
    assert book(one_battery(0.8, **p), 0.0, 0.0, 1.0)[1:] == (0, 0.0)
    # each can still move the other way
    assert book(one_battery(0.2, **p), 0.0, 0.0, 1.0)[2] == 1.0
    assert book(one_battery(0.8, **p), 0.0, 0.0, -1.0)[2] == 1.0


def test_feasible_interval_power_limited():
    fleet = one_battery(0.5, 360.0, capacity=2.0, eta_d=0.95, soc_min=0.2,
                        discharge_limit=1.0)
    hi = book(fleet, 0.0, 0.0, -1.0)[2]
    # SoC headroom allows 0.3*0.95*2/0.1 = 5.7 MW; the 1 MW limit binds
    assert hi == pytest.approx(1.0)


def test_feasible_interval_soc_limited():
    fleet = one_battery(0.5, 3600.0, capacity=2.0, eta_d=1.0, soc_min=0.45,
                        discharge_limit=1.0)
    hi = book(fleet, 0.0, 0.0, -1.0)[2]
    assert hi == pytest.approx(0.1)
    # and the charge side: (0.8 - 0.5) * 2 / (0.95 * 1 h) = 0.63 MW
    fleet = one_battery(0.5, 3600.0, capacity=2.0, eta_c=0.95,
                        charge_limit=1.0)
    hi = book(fleet, 0.0, 0.0, 1.0)[2]
    assert hi == pytest.approx(0.3 * 2.0 / 0.95)


def test_project_clamps_and_zeroes():
    assert project((1.5, 0.0), 1.0, 1) == (1.0, 0.0)
    assert project((0.4, 0.0), 1.0, 1) == (0.4, 0.0)
    assert project((0.0, 0.7), 1.0, 1) == (0.0, 0.0)
    assert project((0.3, 0.0), 1.0, 0) == (0.0, 0.0)
    assert project((0.0, 0.7), 0.5, 0) == (0.0, 0.5)


def test_project_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = (float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
        mode = int(rng.integers(0, 2))
        hi = float(rng.uniform(0, 2))
        once = project(u, hi, mode)
        # one-sided: discharge (mode 1) zeroes c, charge (mode 0) zeroes d
        assert once[mode] == 0.0
        assert project(once, hi, mode) == once


def test_project_is_nearest_feasible_point():
    # brute-force the feasible segment on a fine grid and check the
    # projection is never beaten by more than grid resolution
    rng = np.random.default_rng(8)
    for _ in range(50):
        u_d, u_c = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        mode = int(rng.integers(0, 2))
        hi = float(rng.uniform(0.1, 2))
        best_d, best_c = project((u_d, u_c), hi, mode)
        grid = np.arange(0.0, hi + 1e-9, 1e-3)
        if mode == 1:
            dists = (grid - u_d) ** 2 + u_c**2
            got = (best_d - u_d) ** 2 + u_c**2
        else:
            dists = (grid - u_c) ** 2 + u_d**2
            got = (best_c - u_c) ** 2 + u_d**2
        assert got <= dists.min() + 1e-6


def test_battery_apply_tracks_soc_and_loss():
    fleet = one_battery(0.5, 360.0, soc_min=0.0, soc_max=1.0, capacity=2.0)
    b = fleet.batteries[0]
    book(fleet, 1.0, 0.0)
    assert b.soc == pytest.approx(0.5 - 0.1 / (0.95 * 2))
    assert b.lifetime_loss == 0.0
    book(fleet, 0.0, 1.0)
    book(fleet, 0.0, 1.0)
    # rising past the start closed the dip: some lifetime loss accrues
    assert b.lifetime_loss > 0.0
    assert len(b.residues) >= 1


def test_battery_never_leaves_soc_box_under_projected_decisions():
    rng = np.random.default_rng(3)
    p = FleetConfig()
    fleet = one_battery(0.5, 60.0)
    pair = (0.0, 0.0)
    for _ in range(500):
        mode = int(rng.integers(0, 2))
        # a negative share discharges: the box is the mode's for the
        # booked SoC
        soc, got, hi = book(fleet, *pair, -1.0 if mode else 1.0)
        assert got == mode
        assert p.soc_min <= soc <= p.soc_max
        u = float(rng.uniform(0, 2))
        pair = project((u, u), hi, mode)
        assert pair[0] * pair[1] == 0.0


def test_fleet_wiring():
    # the batteries share every limit; each has its own wear weights
    p = FleetConfig(initial_soc=(0.25, 0.75, 0.5),
                    theta_a=(500.0, 1000.0, 0))
    tau = 360.0
    fleet = Fleet(p, tau)
    for b, theta_a in zip(fleet.batteries, (500.0, 1000.0, 0.0)):
        assert b.terms == cost_terms(2.0, 0.95, 0.95, theta_a, 0.1, tau)
        assert b.aging is AGING
    # twins book the same pairs with the reference's own copies of the
    # helpers. apply_all books each battery's pending pair before it
    # plans, so the mode, box and cost model of each plan it returns
    # follow the booked SoC and residues
    twins = [Battery(b.soc, b.terms) for b in fleet.batteries]
    u, moved = [(0.0, 0.0)] * 3, 0
    for shares, want_modes, pending in (
        ([-2.0, 2.0, -2.0], [1, 0, 1], [(0.3, 0.0), (0.0, 0.2), (0.3, 0.0)]),
        ([-2.0, -2.0, 2.0], [1, 1, 0], [(0.2, 0.0), (0.3, 0.0), (0.0, 0.5)]),
        # a zero share holds the previous mode
        ([0.0, 0.0, -2.0], [1, 1, 1], [(0.1, 0.0), (0.1, 0.0), (0.5, 0.0)]),
        ([-2.0, 2.0, 2.0], [1, 0, 0], None),
    ):
        before = [b.soc for b in fleet.batteries]
        plans = fleet.apply_all(u, shares)
        assert ([plan.mode for plan in plans] == want_modes
                == [b.mode for b in fleet.batteries])
        for b, twin, plan, (d, c), soc in zip(fleet.batteries, twins, plans,
                                              u, before):
            reference.book(twin, d, c, p, tau)
            assert (b.soc, b.residues, b.lifetime_loss) == (
                twin.soc, twin.residues, twin.lifetime_loss)
            mode, hi = plan[:2]
            box = reference.feasible_interval(twin.soc, mode, p, tau)
            assert (0.0, hi) == box
            moved += box != reference.feasible_interval(soc, mode, p, tau)
            assert plan[2:] == reference.interval_cost(twin.residues, b.terms)
        u = pending
    # the first battery's discharge box sits on its SoC limit, so the
    # booked SoC moved it; the third booking closed a cycle on the last
    assert moved
    assert fleet.batteries[2].lifetime_loss > 0.0
