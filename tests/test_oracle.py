"""Centralized solver, regret accounting, and bound checkers."""
import os

import numpy as np
import pytest

from orra.degradation import IntervalCost
from orra.oracle import (
    BoundCheck,
    CentralizedSolution,
    IncompleteTraceError,
    centralized_solve,
    dynamic_regret,
    lemma1_check,
    lemma2_check,
    regret_slope,
)
from optimizer_reference import cost_gradient
from oracle_reference import bisection_solve, brute_force_solve

DATA = os.path.join(os.path.dirname(__file__), "data")


def quad(theta_b):
    """Pure quadratic interval cost, no aging term, as a plan's cost
    fields."""
    return dict(
        mu0=0.0, g_d=0.0, g_c=0.0, theta_b=theta_b, big_theta=0.0, b=2.0
    )


def aging_model(rng, mode):
    """Random strictly convex cost with an active aging slope, as a plan's
    cost fields."""
    g = rng.uniform(0.05, 0.6)
    return dict(
        mu0=rng.uniform(0.0, 0.5),
        g_d=g if mode == 1 else 0.0,
        g_c=g if mode == 0 else 0.0,
        theta_b=rng.uniform(0.05, 0.5),
        big_theta=rng.uniform(0.0, 3.0),
        b=rng.uniform(1.2, 2.5),
    )


def plans(costs, modes, boxes):
    """Each agent's IntervalCost plan, from its cost fields, its mode and
    its box (0, hi), on Python numbers; None when a box starts off 0,
    which no plan carries."""
    if any(lo != 0.0 for lo, _ in boxes):
        return None
    return [IntervalCost(int(mode), float(hi), **cost)
            for cost, mode, (_, hi) in zip(costs, modes, boxes)]


def active(sol):
    """Each agent's power on its active coordinate: the row sums of the
    (d, c) pairs, whose inactive coordinate is exactly 0.0."""
    return np.array(sol.u).sum(axis=1)


def active_slopes(models, sol):
    """Each agent's cost slope along its active coordinate."""
    return np.array([
        cost_gradient(m, d, c)[0 if m.mode == 1 else 1]
        for m, (d, c) in zip(models, sol.u)
    ])


def test_zero_target_idle_fleet():
    # zero net demand, costs minimized at the origin: nobody moves
    models = plans([quad(0.1), quad(0.3), quad(0.2)], [1, 1, 1],
                   [(0.0, 1.0)] * 3)
    sol = centralized_solve(models, 0.0)
    assert np.allclose(active(sol), 0.0, atol=1e-9)
    assert sol.residual <= 1e-6


def test_two_identical_agents_split_evenly():
    models = plans([quad(0.1), quad(0.1)], [1, 1], [(0.0, 1.0)] * 2)
    sol = centralized_solve(models, 1.0)
    assert sol.u == [(pytest.approx(0.5, abs=1e-9), 0.0)] * 2


def test_heterogeneous_matches_brute_force():
    boxes = [(0.0, 0.8), (0.0, 1.0), (0.0, 0.6)]
    models = plans([quad(0.1), quad(0.25), quad(0.4)], [1, 1, 1], boxes)
    target = 1.2
    sol = centralized_solve(models, target)
    q_bf, achieved, _ = brute_force_solve(models, [1, 1, 1], boxes, target)
    assert abs(achieved - target) <= 5e-4
    assert np.abs(active(sol) - q_bf).max() <= 2e-3


def test_interior_marginals_equalized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 6)
        models = plans([aging_model(rng, 1) for _ in range(n)], [1] * n,
                       [(0.0, 5.0)] * n)
        target = float(rng.uniform(0.5, 2.0))
        sol = centralized_solve(models, target)
        assert sol.residual <= 1e-6
        level = -sol.nu  # shared slope for discharge agents
        q, marginals = active(sol), active_slopes(models, sol)
        interior = (q > 1e-9) & (q < 5.0 - 1e-9)
        assert interior.any()
        if interior.sum() > 1:
            m_in = marginals[interior]
            assert m_in.max() - m_in.min() <= 1e-6
        # agents held at the zero corner must already be too expensive
        at_floor = q <= 1e-9
        assert (marginals[at_floor] >= level - 1e-6).all()


def test_mixed_modes_marginals_against_multiplier():
    rng = np.random.default_rng(11)
    costs = [aging_model(rng, 1), aging_model(rng, 0), aging_model(rng, 1)]
    models = plans(costs, [1, 0, 1], [(0.0, 4.0)] * 3)
    sol = centralized_solve(models, 0.7)
    signs = np.array([1.0, -1.0, 1.0])
    q, marginals = active(sol), active_slopes(models, sol)
    interior = (q > 1e-9) & (q < 4.0 - 1e-9)
    assert interior.any()
    # stationarity: active-coordinate slope equals -nu * sign off the corners
    assert np.abs(marginals[interior] + sol.nu * signs[interior]).max() <= 1e-6


def test_random_instances_match_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        modes = [int(m) for m in rng.integers(0, 2, size=n)]
        costs = [aging_model(rng, m) for m in modes]
        boxes = []
        interior = []
        for _i in range(n):
            hi = float(rng.uniform(0.2, 1.0))
            boxes.append((0.0, hi))
            interior.append(float(rng.uniform(0.1, 0.9)) * hi)
        models = plans(costs, modes, boxes)
        signs = np.array([1.0 if m == 1 else -1.0 for m in modes])
        target = round(float((signs * np.array(interior)).sum()), 3)
        sol = centralized_solve(models, target)
        q_bf, achieved, total_bf = brute_force_solve(
            models, modes, boxes, target
        )
        assert abs(achieved - target) <= 5e-4
        assert np.abs(active(sol) - q_bf).max() <= 2e-3
        assert sol.residual <= 1e-6


def test_warm_start_agrees_with_cold():
    rng = np.random.default_rng(5)
    models = plans([aging_model(rng, 1) for _ in range(4)], [1] * 4,
                   [(0.0, 1.0)] * 4)
    cold = centralized_solve(models, 1.5)
    warm = centralized_solve(models, 1.5, nu_hint=cold.nu * 1.01)
    # the search stops on the aggregate residual, so different start
    # points may disagree per coordinate up to the solve tolerance
    assert np.abs(active(cold) - active(warm)).max() <= 1e-6
    far = centralized_solve(models, 1.5, nu_hint=-50.0)
    assert np.abs(active(cold) - active(far)).max() <= 1e-6


def fresh_model(rng):
    """Fresh-start cost: no open half cycle, either move opens one, and
    b in (1, 2), so marginal' grows without bound as mu approaches 0; as a
    plan's cost fields."""
    g = rng.uniform(0.05, 0.6)
    return dict(
        mu0=0.0, g_d=g, g_c=g, theta_b=rng.uniform(0.05, 0.5),
        big_theta=rng.uniform(0.5, 3.0), b=rng.uniform(1.05, 1.95),
    )


def test_newton_solve_matches_nested_bisection():
    rng = np.random.default_rng(41)
    for k in range(120):
        n = int(rng.integers(2, 7))
        modes = [int(m) for m in rng.integers(0, 2, size=n)]
        costs = [
            fresh_model(rng) if rng.random() < 0.5 else aging_model(rng, m)
            for m in modes
        ]
        boxes = [(0.0, float(rng.uniform(0.05, 1.2))) for _ in range(n)]
        models = plans(costs, modes, boxes)
        signs = np.array([1.0 if m == 1 else -1.0 for m in modes])
        his = np.array([b[1] for b in boxes])
        agg_lo = float(-his[signs < 0].sum())
        agg_hi = float(his[signs > 0].sum())
        if k % 4 == 0:  # beyond the achievable range on either side
            target = agg_hi + 0.3 if k % 8 == 0 else agg_lo - 0.3
        else:
            target = float(rng.uniform(agg_lo, agg_hi))
        q_ref, nu_ref, clamped_ref = bisection_solve(
            models, modes, boxes, target, on_infeasible="clamp"
        )
        for hint in (None, nu_ref * 1.02 + 1e-3, -50.0, 80.0):
            sol = centralized_solve(models, target, hint)
            assert sol.clamped == clamped_ref
            assert np.abs(active(sol) - q_ref).max() <= 1e-6
            assert sol.residual <= 1e-7


def branch_cases():
    """Hand-built instances for each branch of the per-agent solve and the
    multiplier search, as (costs, modes, boxes, target). The cases whose
    boxes start at 0.1 are kept for `pinned_cases`, whose fixture holds
    them; no plan carries them."""
    rng = np.random.default_rng(59)

    def pick(mode):
        if rng.random() < 0.5:
            return fresh_model(rng)
        return aging_model(rng, mode)

    cases = []
    # zero-width boxes: batteries held at a SoC limit, hi = 0
    modes = [1, 1, 0, 1]
    models = [pick(m) for m in modes]
    boxes = [(0.0, 0.0), (0.0, 0.8), (0.0, 0.0), (0.0, 0.5)]
    cases += [(models, modes, boxes, t) for t in (0.0, 0.6, 1.3, 2.0)]
    cases.append((models[:1], modes[:1], boxes[:1], 0.0))
    cases.append((models[:3:2], [1, 0], [(0.0, 0.0)] * 2, 0.3))
    # a hair from the limit: a subnormal mu with b near 1 overflows
    # mu^(b-2), so marginal' is infinite there
    near_one = dict(
        mu0=0.0, g_d=1.0, g_c=1.0, theta_b=0.2, big_theta=2.0, b=1.01
    )
    cases.append(
        ([near_one, models[1]], [1, 1], [(0.0, 1e-320), (0.0, 0.8)], 0.3)
    )
    # the target exactly at agg_lo or agg_hi: no agent ends up free, so
    # the multiplier search can only bisect
    modes = [1, 0, 1]
    models = [pick(m) for m in modes]
    boxes = [(0.0, 0.7), (0.0, 0.4), (0.0, 0.9)]
    cases += [(models, modes, boxes, t) for t in (-0.4, 1.6)]
    # a one-agent fleet, inside, on and beyond either box end
    for mode in (1, 0):
        sign = 1.0 if mode == 1 else -1.0
        one = [pick(mode)]
        cases += [
            (one, [mode], [(0.0, 0.6)], sign * t)
            for t in (0.0, 0.25, 0.6, 0.9)
        ]
    # fresh starts: mu0 = 0 with both g_d and g_c nonzero
    modes = [1, 0, 1, 0]
    models = [fresh_model(rng) for _ in modes]
    assert all(m["mu0"] == 0 and m["g_d"] and m["g_c"] for m in models)
    boxes = [(0.0, float(rng.uniform(0.1, 1.0))) for _ in modes]
    cases += [(models, modes, boxes, t) for t in (-0.3, 0.05, 0.4)]
    # mixed modes with a zero target: idle at the origin, or, with boxes
    # that exclude it, discharge and charge agents that must balance
    for n in (2, 3, 5):
        modes = [i % 2 for i in range(n)]
        models = [pick(m) for m in modes]
        his = rng.uniform(0.4, 1.0, size=n)
        cases.append((models, modes, [(0.0, h) for h in his], 0.0))
        cases.append((models, modes, [(0.1, h) for h in his], 0.0))
    return cases


def test_newton_solve_matches_bisection_on_branch_cases():
    for costs, modes, boxes, target in branch_cases():
        models = plans(costs, modes, boxes)
        if models is None:
            continue
        q_ref, _, clamped_ref = bisection_solve(
            models, modes, boxes, target, on_infeasible="clamp"
        )
        # hints far beyond +-nu_max are clipped into the bracket
        for hint in (None, -1e6, 1e6):
            sol = centralized_solve(models, target, hint)
            assert sol.clamped == clamped_ref
            assert np.abs(active(sol) - q_ref).max() <= 1e-6
            assert sol.residual <= 1e-7


def test_inactive_coordinate_is_exact_zero():
    # the benchmark's regret check tests the inactive coordinate with != 0
    for costs, modes, boxes, target in branch_cases():
        models = plans(costs, modes, boxes)
        if models is None:
            continue
        u = np.array(centralized_solve(models, target).u)
        discharge = np.array(modes) == 1
        assert (u[discharge, 1] == 0.0).all()
        assert (u[~discharge, 0] == 0.0).all()


def pinned_cases():
    """Seeded solver inputs, as (costs, modes, boxes, target, nu_hint):
    the branch cases, then 1-8 agents in one or both modes, with boxes
    that may sit off zero and targets inside the achievable range, on
    either end and beyond it. Every third case starts cold, the others
    from a near or a far hint; every other case holds its modes, boxes,
    target and hint as numpy values."""
    rng = np.random.default_rng(28)
    base = branch_cases()
    for k in range(64):
        n = k % 8 + 1
        modes = [int(m) for m in rng.integers(0, 2, size=n)]
        if k % 3 == 0:
            modes = [k % 2] * n
        models = [
            fresh_model(rng) if rng.random() < 0.3 else aging_model(rng, m)
            for m in modes
        ]
        los = rng.uniform(0.0, 0.3, size=n) * (rng.random(n) < 0.3)
        widths = rng.uniform(0.0, 1.5, size=n)
        boxes = [(float(lo), float(lo + w)) for lo, w in zip(los, widths)]
        agg_lo = sum(lo if m == 1 else -hi for m, (lo, hi) in zip(modes, boxes))
        agg_hi = sum(hi if m == 1 else -lo for m, (lo, hi) in zip(modes, boxes))
        target = (float(rng.uniform(agg_lo, agg_hi)), agg_lo, agg_hi,
                  agg_lo - float(rng.uniform(0.01, 1.0)),
                  agg_hi + float(rng.uniform(0.01, 1.0)))[k % 5]
        base.append((models, modes, boxes, target))
    cases = []
    for i, (models, modes, boxes, target) in enumerate(base):
        hint = (None, float(rng.normal(0.0, 0.5)),
                float(rng.normal(0.0, 1.0) * 10.0 ** rng.integers(1, 7)))[i % 3]
        if i % 2:
            modes, boxes, target = np.array(modes), np.array(boxes), np.float64(target)
            hint = None if hint is None else np.float64(hint)
        cases.append((models, modes, boxes, target, hint))
    return cases


def test_centralized_solve_matches_pinned_bits():
    """The solver's outputs on `pinned_cases` whose boxes all start at 0,
    bit for bit, each case's plans built on Python numbers. The fixture
    holds every case: it was written, when the solver took each agent's
    model, mode and (lo, hi) box, by this snippet, run from the
    repository root with PYTHONPATH=src:tests:

        import numpy as np
        from orra.oracle import centralized_solve
        from test_oracle import pinned_cases

        sols = [centralized_solve(*case) for case in pinned_cases()]
        np.savez_compressed(
            "tests/data/oracle_pinned.npz",
            n=[len(s.u) for s in sols],
            u=np.concatenate([np.array(s.u, dtype=float) for s in sols]),
            **{key: [getattr(s, key) for s in sols]
               for key in ("nu", "residual", "target", "clamped")})

    Any change to the fixture needs a CHANGES.md entry saying why.
    """
    want = np.load(os.path.join(DATA, "oracle_pinned.npz"))
    cases = pinned_cases()
    assert want["n"].tolist() == [len(case[0]) for case in cases]
    rows = np.cumsum([0, *want["n"]])
    solved = 0
    for i, (costs, modes, boxes, target, hint) in enumerate(cases):
        models = plans(costs, modes, boxes)
        if models is None:
            continue
        sol = centralized_solve(models, target, hint)
        solved += 1
        u = np.array(sol.u, dtype=float)
        assert u.tobytes() == want["u"][rows[i]:rows[i + 1]].tobytes(), i
        for key in ("nu", "residual", "target"):
            got = getattr(sol, key)
            assert type(got) is float, (i, key)
            assert np.float64(got).tobytes() == want[key][i].tobytes(), (i, key)
        assert sol.clamped is bool(want["clamped"][i]), i
    assert solved == 40


def test_infeasible_target_clamps_on_request():
    for modes, target, end, u in (
        ([1, 1], 3.0, 2.0, [(1.0, 0.0)] * 2),  # discharging, range [0, 2]
        ([0, 0], 0.5, 0.0, [(0.0, 0.0)] * 2),  # charging only, [-2, 0]
    ):
        models = plans([quad(0.1), quad(0.1)], modes, [(0.0, 1.0)] * 2)
        sol = centralized_solve(models, target)
        assert sol.clamped
        assert sol.target == pytest.approx(end)
        assert np.array(sol.u) == pytest.approx(np.array(u), abs=1e-9)


def test_wear_term_required():
    flat = IntervalCost(
        mode=1, hi=1.0, mu0=0.0, g_d=0.0, g_c=0.0, theta_b=0.0,
        big_theta=1.0, b=2.0,
    )
    with pytest.raises(ValueError):
        centralized_solve([flat], 0.5)


def test_dynamic_regret_values():
    assert dynamic_regret([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.0)
    assert dynamic_regret([1.2], [1.0]) == pytest.approx(0.2)
    assert dynamic_regret([1.0, 2.0, 3.0], [0.5, 1.5, 2.0], T=2) == (
        pytest.approx(1.0)
    )


def test_dynamic_regret_incomplete_trace():
    with pytest.raises(IncompleteTraceError):
        dynamic_regret([1.0, 2.0], [1.0], T=2)
    with pytest.raises(IncompleteTraceError):
        dynamic_regret([1.0, np.nan], [1.0, 1.0], T=2)


def test_lemma2_static_optimum():
    rng = np.random.default_rng(3)
    T, n = 20, 3
    u_star = np.tile(rng.uniform(-0.5, 0.5, size=n), (T + 1, 1))
    u = u_star + rng.uniform(-0.4, 0.4, size=(T + 1, n))
    kappa = 0.4 / np.sqrt(np.maximum(np.arange(T + 1), 1))
    check = lemma2_check(u, u_star, kappa, B_u=1.0)
    assert isinstance(check, BoundCheck)
    assert check.holds
    assert check.terms[0] == pytest.approx(0.0)  # static optimum: no path


def test_lemma2_rejects_increasing_stepsizes():
    u = np.zeros((5, 2))
    kappa = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError):
        lemma2_check(u, u, kappa, B_u=1.0)


def test_regret_slope_recovers_exponents():
    horizons = [50, 100, 200, 400, 600]
    sqrt_fit = regret_slope(horizons, [3.0 * t**0.5 for t in horizons])
    assert sqrt_fit.slope == pytest.approx(0.5, abs=0.02)
    assert sqrt_fit.spans_decade
    assert sqrt_fit.sublinear
    lin_fit = regret_slope(horizons, [0.7 * t for t in horizons])
    assert lin_fit.slope == pytest.approx(1.0, abs=0.02)
    assert not lin_fit.sublinear


def test_regret_slope_exclusions_and_span():
    fit = regret_slope([50, 100, 200], [-1.0, 10.0, 14.0])
    assert fit.excluded == (50,)
    assert fit.n_used == 2
    assert not fit.spans_decade  # 2x span cannot certify sublinearity
    with pytest.raises(ValueError):
        regret_slope([50, 100], [-1.0, -2.0])
