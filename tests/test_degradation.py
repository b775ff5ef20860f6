"""Tests for streaming rainflow counting and the battery usage cost."""
import collections

import numpy as np
import pytest

from orra.bess import Fleet
from orra.degradation import (
    AGING,
    CycleEvent,
    cost_terms,
    rainflow_step,
    total_loss,
)
from orra.optimizer import OrraOptimizer
from orra.scenario import FleetConfig, OptimizerConfig
from rainflow_reference import rainflow_batch, turning_points


def finalize(residues):
    """Count the leftover residue ranges as half cycles."""
    return tuple(
        CycleEvent(abs(b - a), 0.5) for a, b in zip(residues, residues[1:])
    )


def stream(samples, stack=()):
    """Feed samples through the online counter, collecting all events."""
    events = []
    for x in samples:
        out, stack = rainflow_step(x, stack)
        events.extend(out)
    return events, stack


def multiset(events):
    return collections.Counter((e.depth, e.n_cyc) for e in events)


def test_turning_points_collapse():
    assert turning_points([0.5, 0.6, 0.7, 0.7, 0.2]) == [0.5, 0.7, 0.2]
    assert turning_points([0.5, 0.5, 0.5]) == [0.5]
    assert turning_points([0.1, 0.4, 0.4, 0.6]) == [0.1, 0.6]


def test_batch_reference_on_classic_sequence():
    # Classic ASTM E1049 worked example: ranges 3,4,8 are start-touching
    # halves, 4 closes as a full cycle, then 9,8,6 remain as residue halves.
    seq = [-2, 1, -3, 5, -1, 3, -4, 4, -2]
    got = collections.Counter(rainflow_batch(seq))
    assert got == collections.Counter(
        {
            (3.0, 0.5): 1,
            (4.0, 0.5): 1,
            (4.0, 1.0): 1,
            (8.0, 0.5): 2,
            (9.0, 0.5): 1,
            (6.0, 0.5): 1,
        }
    )


def test_constant_stream_no_cycles():
    events, stack = stream([0.5] * 10)
    assert events == []
    assert stack == (0.5,)


def test_simple_close_identifies_depth():
    events, stack = stream([0.2, 0.8, 0.2])
    assert len(events) == 1
    assert events[0].depth == pytest.approx(0.6)
    assert events[0].n_cyc == 0.5
    assert stack == (0.8, 0.2)


def test_five_point_sequence_matches_batch():
    seq = [0.5, 0.9, 0.3, 0.7, 0.1]
    events, stack = stream(seq)
    assert multiset(events + list(finalize(stack))) == collections.Counter(
        rainflow_batch(seq)
    )


def test_one_sample_can_close_nested_cycles():
    events, stack = stream([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
    assert events == []
    events, stack = rainflow_step(0.95, stack)[0], rainflow_step(0.95, stack)[1]
    assert [(e.depth, e.n_cyc) for e in events] == [
        (pytest.approx(0.5), 1.0),
        (pytest.approx(0.7), 1.0),
    ]
    assert stack == (0.1, 0.95)


def test_streaming_equals_batch_on_random_walks():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        walk = np.clip(0.5 + np.cumsum(rng.normal(0, 0.05, size=n)), 0.0, 1.0)
        events, stack = stream(walk)
        online = multiset(events + list(finalize(stack)))
        batch = collections.Counter(rainflow_batch(walk))
        assert online == batch


def test_streaming_equals_batch_on_monotone_and_tiny_walks():
    for seq in ([0.3], [0.3, 0.7], [0.1, 0.2, 0.3, 0.4], [0.9, 0.5, 0.2]):
        events, stack = stream(seq)
        assert multiset(events + list(finalize(stack))) == collections.Counter(
            rainflow_batch(seq)
        )


def test_residue_stack_invariants_hold_along_random_walk():
    rng = np.random.default_rng(9)
    walk = np.clip(0.5 + np.cumsum(rng.normal(0, 0.1, size=300)), 0.0, 1.0)
    stack = ()
    for x in walk:
        _, stack = rainflow_step(x, stack)
        for a, b, c in zip(stack, stack[1:], stack[2:]):
            assert (b - a) * (c - b) < 0  # strict alternation


def booked(stack, pair=(0.0, 0.0), tau=0.1, **params):
    """Book pair on a one-battery fleet whose residue stack is stack, its
    SoC on the stack's top, in the box [0, 1]: the battery, the plan
    Fleet.apply_all returns for it, and the gradient of the plan's cost
    that OrraOptimizer.iterate prices at the booked pair, read from the
    saddle direction of a zero dual. An idle pair leaves the stack as it
    is."""
    fleet = Fleet(FleetConfig(initial_soc=(stack[-1],), soc_min=0.0,
                              soc_max=1.0, **params), tau)
    b = fleet.batteries[0]
    b.residues = stack
    (model,) = fleet.apply_all([pair], [0.0])
    opt = OrraOptimizer(np.ones((1, 1)), OptimizerConfig())
    _, info = opt.iterate([pair], [model], [0.0], 0.0, fleet.soc, [])
    ((s_d, s_c),) = info["s"]
    return b, model, (s_d, -s_c)


def test_open_half_direction():
    # the model prices the open half cycle, the top two residues: after a
    # fall discharge deepens it, after a rise charge does, and with one
    # residue there is none yet, so either does
    g_d, g_c = cost_terms(2.0, 0.95, 0.95, 1000.0, 0.1, 0.1)[:2]
    for samples, mu0, slopes in (([0.5, 0.3], 0.2, (g_d, 0.0)),
                                 ([0.5, 0.8], 0.3, (0.0, g_c)),
                                 ([0.5], 0.0, (g_d, g_c))):
        _, model, _ = booked(stream(samples)[1])
        assert model.mu0 == pytest.approx(mu0)
        assert (model.g_d, model.g_c) == slopes


def test_lifetime_loss_values():
    # a full cycle of depth m costs a/2 * m**b, a half cycle a/4 * m**b
    assert total_loss([CycleEvent(0.0, 1.0)]) == 0.0
    assert total_loss([CycleEvent(0.5, 1.0)]) == pytest.approx(
        5.24e-4 / 2 * 0.5**2.03)
    assert total_loss([CycleEvent(1.0, 0.5)]) == pytest.approx(5.24e-4 / 4)


def test_lifetime_loss_monotone_in_depth():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mus = np.sort(rng.uniform(0.01, 1.0, size=10))
        losses = [total_loss([CycleEvent(m, 1.0)]) for m in mus]
        assert all(l1 < l2 for l1, l2 in zip(losses, losses[1:]))


def test_aging_law_keeps_the_interval_cost_convex():
    # the frozen-residue cost is convex only for a positive coefficient
    # and an exponent of at least 1
    assert AGING == (5.24e-4, 2.03)
    assert AGING.a > 0 and AGING.b >= 1


def usage_cost(d, c, loss, theta_a, theta_b, tau) -> float:
    """Battery usage cost in $/h: amortized aging loss plus power wear."""
    return theta_a * (3600.0 / tau) * loss + theta_b * (d - c) ** 2


def test_usage_cost_values():
    # the interval model prices the open half cycle's loss, a/4 * mu**b,
    # amortized over the interval, plus the power wear
    _, model, _ = booked(stream([0.5, 0.4])[1], capacity=2.0, theta_a=10.0,
                         theta_b=0.1)
    assert model.value(0.0, 0.0) == pytest.approx(
        usage_cost(0, 0, AGING.a / 4 * 0.1**AGING.b, 10.0, 0.1, 0.1)
    )
    # 10 $/h * 36000 intervals/h * 1.31e-4 * 0.1**2.03
    assert model.value(0.0, 0.0) == pytest.approx(0.44012, rel=1e-4)
    # charging heals the downward half: only the wear term grows
    assert model.value(0.0, 2.0) - model.value(0.0, 0.0) == pytest.approx(0.4)


def make_model(rng, direction=None):
    _, stack = stream([0.5])
    if direction == -1:
        _, stack = stream([0.5, 0.5 - rng.uniform(0.05, 0.3)])
    elif direction == 1:
        _, stack = stream([0.5, 0.5 + rng.uniform(0.05, 0.3)])
    return booked(
        stack,
        capacity=float(rng.uniform(1.0, 4.0)),
        eta_c=0.95,
        eta_d=0.95,
        theta_a=float(rng.uniform(100, 2000)),
        theta_b=float(rng.uniform(0.01, 0.5)),
        tau=0.1,
    )[1]


def test_interval_cost_convexity_probe():
    rng = np.random.default_rng(5)
    for _ in range(200):
        model = make_model(rng, direction=int(rng.choice([-1, 0, 1])))
        p = rng.uniform(0, 3, size=2)
        q = rng.uniform(0, 3, size=2)
        lam = float(rng.uniform(0, 1))
        mid = lam * p + (1 - lam) * q
        lhs = model.value(mid[0], mid[1])
        rhs = lam * model.value(*p) + (1 - lam) * model.value(*q)
        assert lhs <= rhs + 1e-9


def test_gradient_trivial_at_origin_with_no_open_half():
    _, _, grad = booked(stream([0.5])[1], capacity=2.0, theta_a=1000.0,
                        theta_b=0.1)
    assert grad == (0.0, 0.0)


def test_gradient_quadratic_part():
    # aging inactive: zero depth and zero deepening slope via a huge capacity
    _, _, (gd, gc) = booked(stream([0.5])[1], (1.0, 0.0), capacity=1e12,
                            theta_a=0.0, theta_b=0.1)
    assert gd == pytest.approx(0.2)
    assert gc == pytest.approx(-0.2)


def test_gradient_matches_finite_differences_of_composed_cost():
    # Compose soc stepping, rainflow, and usage_cost directly from the
    # booked state, then compare central differences on the deepening
    # coordinate at the booked pair against the fleet's gradient there.
    # Points are kept away from the zero-depth kink.
    rng = np.random.default_rng(11)
    tau = 0.1
    for _ in range(100):
        e_cap = float(rng.uniform(1.0, 4.0))
        eta_c = eta_d = 0.95
        theta_a = float(rng.uniform(100, 2000))
        theta_b = float(rng.uniform(0.01, 0.5))
        down = bool(rng.integers(0, 2))
        x1 = 0.5 - 0.2 if down else 0.5 + 0.2
        u = float(rng.uniform(0.5, 2.0))
        b, _, grad = booked(stream([0.5, x1])[1],
                            (u, 0.0) if down else (0.0, u), tau,
                            capacity=e_cap, eta_c=eta_c, eta_d=eta_d,
                            theta_a=theta_a, theta_b=theta_b)

        def composed(d, c):
            x2 = b.soc + eta_c * (tau / 3600) / e_cap * c
            x2 -= (tau / 3600) / (eta_d * e_cap) * d
            _, s2 = rainflow_step(x2, b.residues)
            mu = abs(s2[-1] - s2[-2])  # the open half cycle's depth
            loss = (0.5 / 2.0) * AGING.a * mu**AGING.b
            return usage_cost(d, c, loss, theta_a, theta_b, tau)

        h = 1e-5
        if down:
            fd = (composed(u + h, 0) - composed(u - h, 0)) / (2 * h)
        else:
            fd = (composed(0, u + h) - composed(0, u - h)) / (2 * h)
        assert grad[0 if down else 1] == pytest.approx(fd, rel=1e-5,
                                                       abs=1e-9)


def test_healing_coordinate_has_zero_aging_slope():
    # the open half is downward
    _, model, grad = booked(stream([0.5, 0.3])[1], capacity=2.0,
                            theta_a=1000.0, theta_b=0.0)
    assert model.g_c == 0.0
    # with no wear term the cost is flat along the charge coordinate
    assert model.value(0.0, 1.0) == pytest.approx(model.value(0.0, 0.0))
    assert grad[1] == 0.0


def test_total_loss_sums_events():
    events = [CycleEvent(0.5, 1.0), CycleEvent(1.0, 0.5)]
    assert total_loss(events) == pytest.approx(
        total_loss(events[:1]) + total_loss(events[1:]))
    assert total_loss([]) == 0.0
