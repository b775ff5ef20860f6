"""Distributed primal-dual iteration: ops, invariants, and regret bounds."""
import numpy as np
import pytest

from optimizer_reference import (
    VectorOptimizer,
    constraint_h,
    cost_gradient,
    dual_update,
    gradient_s,
    primal_update,
    tracking_update,
)
from orra.comm_graph import default_edges, metropolis_weights
from orra.degradation import IntervalCost
from orra.optimizer import OrraOptimizer, check_schedule, schedule_step
from orra.oracle import centralized_solve, lemma1_check, lemma2_check
from orra.scenario import OptimizerConfig

# the gains the tests below were written against: the config's, with
# stages capped at 600 intervals
GAINS = OptimizerConfig(t_max=600)


def quad_aging(theta_b, mu0=0.0, g_d=0.0, big_theta=0.0, b=2.0):
    """The plan of an agent that discharges on the box [0, 1]."""
    return IntervalCost(
        mode=1, hi=1.0, mu0=mu0, g_d=g_d, g_c=0.0, theta_b=theta_b,
        big_theta=big_theta, b=b,
    )


def flat(mode=1, hi=1.0):
    """The plan of an agent with a cost of zero everywhere, for agents
    whose cost the test does not read."""
    return IntervalCost(mode=mode, hi=hi, mu0=0.0, g_d=0.0, g_c=0.0,
                        theta_b=0.0, big_theta=0.0, b=2.0)


def fleet_weights():
    return np.array(metropolis_weights(5, default_edges()))


def soc(n):
    """A state of charge for each of n agents' trace cells."""
    return [0.5] * n


def test_constraint_h_values():
    u = np.array([[0.4, 0.0], [0.0, 0.3]])
    aie = np.array([0.1, -0.2])
    assert constraint_h(u, aie) == pytest.approx([0.5, -0.5])


def test_gradient_s_shifts_both_coordinates():
    grads = np.array([[0.2, -0.2]])
    s = gradient_s(grads, np.array([1.0]))
    assert np.allclose(s, [[1.2, 1.2]])


def primal_steps(u, s, kappa, intervals, modes):
    """Every agent's primal step and projection as `iterate` takes them:
    agents that mix with no one, from a zero dual, at the stage's first
    gain kappa, with costs whose slope at u makes s their saddle
    direction along the active coordinate: an aging term of exponent 1
    on a depth that stays positive, with no wear term. intervals holds
    each agent's box [0, hi]."""
    n = len(u)
    opt = OrraOptimizer(np.eye(n), OptimizerConfig(kappa0=kappa))
    plans = [IntervalCost(mode, hi, 1.0, float(mode == 1), float(mode == 0),
                          0.0, s_d if mode == 1 else -s_c, 1.0)
             for mode, (_, hi), (s_d, s_c) in zip(
                 np.asarray(modes).tolist(), np.asarray(intervals).tolist(),
                 np.asarray(s).tolist())]
    u_next, _ = opt.iterate(np.asarray(u).tolist(), plans, [0.0] * n, 0.0,
                            soc(n), [])
    return np.array(u_next)


def test_primal_update_step_and_projection():
    u = np.array([[0.5, 0.0], [0.0, 0.2]])
    s = np.array([[1.2, 1.2], [-0.5, -2.5]])
    intervals = np.array([[0.0, 1.0], [0.0, 0.3]])
    out = primal_steps(u, s, 0.1, intervals, np.array([1, 0]))
    # discharge agent: d = 0.5 - 0.12, charge coordinate forced to zero
    assert out[0] == pytest.approx([0.38, 0.0])
    # charge agent: c = 0.2 - 0.25 clamps to the floor
    assert out[1] == pytest.approx([0.0, 0.0])
    high = primal_steps(u, -s, 1.0, intervals, np.array([1, 0]))
    assert high[0, 0] == pytest.approx(1.0)  # ceiling clamp
    assert high[1, 1] == pytest.approx(0.3)


def test_primal_step_ties_and_nan_follow_numpy_clip():
    # signed zeros against the 0.0 floor and 0.0 and -0.0 box tops in
    # both modes; a NaN passes the projection, as it passes numpy's clip,
    # and so reaches the tracker, which ends the run
    values = (-0.0, 0.0, 0.3)
    cases = [(x, hi, mode) for x in values for hi in (-0.0, 0.0, 0.3)
             for mode in (0, 1)]
    u = np.array([[x, x] for x, *_ in cases])
    boxes = np.array([[0.0, hi] for _, hi, _ in cases])
    modes = np.array([mode for *_, mode in cases])
    s = np.zeros_like(u)
    want = primal_update(u, s, 0.0, boxes, modes)
    got = primal_steps(u, s, 0.0, boxes, modes)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert (np.signbit(got[finite]) == np.signbit(want[finite])).all()
    assert (got[finite] == want[finite]).all()
    for mode in (0, 1):
        with pytest.raises(FloatingPointError, match="tracker"):
            primal_steps(np.array([[np.nan, np.nan]]), np.zeros((1, 2)), 0.0,
                         np.array([[0.0, 0.3]]), np.array([mode]))


def test_dual_update_value():
    out = dual_update(np.array([1.0]), np.array([1.0]), 0.1, 0.5, 2.0)
    assert out == pytest.approx([0.7])


def test_tracking_update_value():
    out = tracking_update(np.array([0.4]), np.array([0.9]), np.array([0.5]))
    assert out == pytest.approx([0.8])


def test_schedule_rates_and_reset():
    sched = OptimizerConfig(kappa0=1.0, eps0=1.0, t_max=600)
    kappa, eps, t_next, reset = schedule_step(4, 0.0, sched)
    assert (kappa, eps) == pytest.approx((0.5, 4.0**-0.75))
    assert t_next == 5 and not reset
    kappa, eps, t_next, reset = schedule_step(4, 0.06, sched)
    assert reset and t_next == 1
    assert (kappa, eps) == pytest.approx((1.0, 1.0))
    kappa, eps, t_next, reset = schedule_step(600, 0.0, sched)
    assert reset and t_next == 1
    kappa, eps, t_next, reset = schedule_step(599, 0.0, sched)
    assert not reset and t_next == 600
    # the first two counter values both run at full gain
    assert schedule_step(0, 0.0, sched) == (1.0, 1.0, 1, False)
    assert schedule_step(1, 0.0, sched) == (1.0, 1.0, 2, False)


def test_schedule_validation():
    # the relations between the exponents, checked when an optimizer is
    # built; single-field domains are the config's
    w = fleet_weights()
    check_schedule(OptimizerConfig())
    for cfg, phrase in (
        (OptimizerConfig(alpha=0.8, beta=0.7), "alpha <= beta"),
        (OptimizerConfig(alpha=0.3, beta=0.75), "2\\*beta - 3\\*alpha"),
        (OptimizerConfig(alpha=0.5, beta=1.0), "beta < 1"),
    ):
        with pytest.raises(ValueError, match=phrase):
            check_schedule(cfg)
        with pytest.raises(ValueError, match=phrase):
            OrraOptimizer(w, cfg)


def test_zero_aie_is_a_fixed_point():
    w = fleet_weights()
    opt = OrraOptimizer(w, GAINS)
    n = w.shape[0]
    u = [(0.0, 0.0)] * n
    for _ in range(50):
        u, info = opt.iterate(u, [flat()] * n, [0.0] * n, 0.0, soc(n), [])
        assert np.allclose(u, 0.0)
        assert np.allclose(info["lam"], 0.0)
        assert info["bound"] == pytest.approx(0.0)


def test_identical_agents_stay_symmetric():
    # complete graph so the mixing cannot distinguish the two agents
    w = metropolis_weights(2, ((0, 1),))
    opt = OrraOptimizer(w, GAINS)
    models = [quad_aging(0.2), quad_aging(0.2)]
    u = [(0.0, 0.0)] * 2
    aie = [-0.3, -0.3]
    for _ in range(200):
        u, _ = opt.iterate(u, models, aie, 0.0, soc(2), [])
        assert u[0] == pytest.approx(u[1], abs=1e-12)


def run_static_stage(steps=600):
    """Five heterogeneous agents against a constant aggregate error."""
    w = fleet_weights()
    n = w.shape[0]
    opt = OrraOptimizer(w, GAINS)
    models = [
        quad_aging(0.1, mu0=0.1, g_d=0.2, big_theta=0.5, b=2.03),
        quad_aging(0.25),
        quad_aging(0.15, mu0=0.3, g_d=0.1, big_theta=1.0, b=1.8),
        quad_aging(0.3),
        quad_aging(0.2, mu0=0.05, g_d=0.3, big_theta=0.8, b=2.2),
    ]
    aie = np.array([-0.10, -0.14, -0.12, -0.11, -0.13])
    u = [(0.0, 0.0)] * n
    infos = []
    for _ in range(steps):
        u, info = opt.iterate(u, models, aie.tolist(), 0.0, soc(n), [])
        infos.append(info)
    return np.array(u), infos, models, aie


def test_static_stage_converges_to_oracle():
    u, infos, models, aie = run_static_stage()
    target = -aie.sum()
    sol = centralized_solve(models, target)

    # aggregate balance decays below 2% of the initial error within the stage
    viol = [abs(np.sum(i["h"])) for i in infos]
    assert min(viol) < 0.02 * abs(aie.sum())
    assert viol[-1] < 0.02 * abs(aie.sum())
    # allocation lands near the centralized optimum
    assert np.abs(u[:, 0] - np.array(sol.u)[:, 0]).max() < 0.02
    # interior agents agree on the cost slope within 5%
    marg = np.array(
        [cost_gradient(m, *ui)[0] for m, ui in zip(models, u)]
    )
    interior = (u[:, 0] > 1e-6) & (u[:, 0] < 1.0 - 1e-6)
    spread = marg[interior].max() - marg[interior].min()
    assert spread <= 0.05 * abs(marg[interior].mean())
    # dual consensus at stage end: agents quote near-identical prices
    lam = np.array(infos[-1]["lam"])
    dev = np.abs(lam - lam.mean()).max()
    assert dev <= 0.01 * max(np.abs(lam).mean(), 1e-12)


def test_dual_bound_and_tracking_every_iteration():
    _, infos, *_ = run_static_stage()
    for k, info in enumerate(infos):
        assert np.abs(info["lam"]).max() <= info["bound"] + 1e-12
        if k > 0:
            # tracker mean equals the fleet-average constraint memory
            drift = np.mean(info["y"]) - np.mean(infos[k - 1]["h"])
            assert abs(drift) <= 1e-9


def test_frequency_spike_restarts_stage_and_clips_dual():
    w = fleet_weights()
    n = w.shape[0]
    opt = OrraOptimizer(w, GAINS)
    models = [quad_aging(0.2)] * n
    aie = [-0.12] * n
    u = [(0.0, 0.0)] * n
    for k in range(80):
        df = 0.08 if k == 50 else 0.0
        u, info = opt.iterate(u, models, aie, df, soc(n), [])
        if k == 50:
            assert info["reset"]
            assert info["stage"] == 1
            assert info["t"] == 0
            assert info["kappa"] == pytest.approx(opt.config.kappa0)
        assert np.abs(info["lam"]).max() <= info["bound"] + 1e-12
    assert opt.stage == 1


def test_a_dual_bound_past_a_float_ends_the_run():
    # gamma 1e308 lies in its domain, but the price it sets overflows; the
    # interval that first holds a non-finite bound, dual or tracker raises
    # instead of logging it
    n = 5
    opt = OrraOptimizer(fleet_weights(), OptimizerConfig(gamma=1e308))
    u = [(0.0, 0.0)] * n
    with pytest.raises(FloatingPointError) as err:
        for _ in range(1000):
            row = []
            u, info = opt.iterate(u, [flat()] * n, [-0.5] * n, 0.0, soc(n),
                                  row)
            assert np.isfinite(row).all() and np.isfinite(info["lam"]).all()
    assert "dual bound" in str(err.value)
    assert "optimizer.gamma 1e+308" in str(err.value)
    assert np.isfinite(opt.lam).all() and np.isfinite(opt.y).all()


def random_instance(rng):
    """Small synthetic tracking problem with a slowly drifting error."""
    n = int(rng.integers(2, 5))
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = [(i, j) for i in range(n) for j in range(i + 2, n)]
    for e in extra:
        if rng.random() < 0.4:
            edges.append(e)
    w = np.array(metropolis_weights(n, edges))
    modes = np.array([int(m) for m in rng.integers(0, 2, size=n)])
    costs = []
    for m in modes:
        g = float(rng.uniform(0.05, 0.4))
        costs.append(dict(
            mu0=float(rng.uniform(0.0, 0.3)),
            g_d=g if m == 1 else 0.0,
            g_c=g if m == 0 else 0.0,
            theta_b=float(rng.uniform(0.1, 0.5)),
            big_theta=float(rng.uniform(0.0, 1.5)),
            b=float(rng.uniform(1.5, 2.3)),
        ))
    hi = rng.uniform(0.4, 1.0, size=n)
    plans = [IntervalCost(mode=m, hi=h, **cost)
             for m, h, cost in zip(modes.tolist(), hi.tolist(), costs)]
    signs = np.where(modes == 1, 1.0, -1.0)
    agg_lo = float(np.where(signs > 0, 0.0, -hi).sum())
    agg_hi = float(np.where(signs > 0, hi, 0.0).sum())
    mid = 0.5 * (agg_lo + agg_hi)
    span = 0.35 * (agg_hi - agg_lo)
    base = mid + float(rng.uniform(-0.5, 0.5)) * span
    T = int(rng.integers(10, 51))
    targets = base + np.cumsum(rng.uniform(-1, 1, size=T + 1)) * 0.02 * span
    targets = np.clip(targets, mid - span, mid + span)
    return w, plans, targets


def test_regret_bounds_on_random_instances():
    rng = np.random.default_rng(17)
    failures = []
    for trial in range(100):
        w, models, targets = random_instance(rng)
        n = w.shape[0]
        T = len(targets) - 1
        opt = OrraOptimizer(w, GAINS)
        gamma = GAINS.gamma
        u = np.zeros((n, 2))
        rows = {
            k: []
            for k in ("u", "ustar", "s", "lam", "lamx", "y", "yx", "kap",
                      "eps", "fd", "fo")
        }
        nu = None
        for t in range(T + 1):
            aie = np.full(n, -targets[t] / n)
            sol = centralized_solve(models, targets[t], nu_hint=nu)
            nu = sol.nu
            u_star = np.array(sol.u)
            fd = sum(m.value(ui[0], ui[1]) for m, ui in zip(models, u))
            fo = sum(
                m.value(us[0], us[1]) for m, us in zip(models, u_star)
            )
            rows["u"].append(u.copy())
            rows["ustar"].append(u_star)
            rows["fd"].append(fd)
            rows["fo"].append(fo)
            u, info = opt.iterate(u, models, aie.tolist(), 0.0, soc(n), [])
            for key, name in (
                ("s", "s"), ("lam", "lam"), ("lamx", "lam_mixed"),
                ("y", "y"), ("yx", "y_mixed"),
            ):
                rows[key].append(info[name])
            rows["kap"].append(info["kappa"])
            rows["eps"].append(info["eps"])
        args = dict(
            u=np.array(rows["u"]),
            u_star=np.array(rows["ustar"]),
            s=np.array(rows["s"]),
            lam=np.array(rows["lam"]),
            lam_mixed=np.array(rows["lamx"]),
            y=np.array(rows["y"]),
            y_mixed=np.array(rows["yx"]),
            kappa=np.array(rows["kap"]),
            eps=np.array(rows["eps"]),
        )
        c1 = lemma1_check(
            gamma=gamma, dist_costs=rows["fd"], oracle_costs=rows["fo"],
            **args,
        )
        B_u = max(m.hi for m in models)
        c2 = lemma2_check(
            np.array(rows["u"]), np.array(rows["ustar"]),
            np.array(rows["kap"]), B_u,
        )
        if not (c1.holds and c2.holds):
            failures.append((trial, c1.lhs, c1.rhs, c2.lhs, c2.rhs))
    assert not failures, f"bound violations: {failures[:5]}"


def bits(x) -> bytes:
    """The float64 bytes of x, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=float).tobytes()


def reference_cells(u_next, info, shares, plans, soc):
    """The trace cells of one iterate, from the reference's u_next and log,
    priced with IntervalCost as the runner priced them agent by agent:
    (row, fleet net injection, fleet cost)."""
    u_next = np.asarray(u_next).tolist()
    agents, tail, interior = [], [], []
    f_dist = p_bess = 0.0
    for i, ((d, c), m) in enumerate(zip(u_next, plans)):
        mode, lo, hi = m.mode, 0.0, m.hi
        f_dist += m.value(d, c)
        g_d, g_c = cost_gradient(m, d, c)
        p_bess += d - c
        agents += [shares[i], mode, d, c, soc[i], g_d if mode == 1 else g_c,
                   info["lam"][i], info["lam_mixed"][i], info["y"][i],
                   info["y_mixed"][i], info["h"][i]]
        tail += list(info["s"][i])
        interior.append(lo + 1e-9 < (d if mode == 1 else c) < hi - 1e-9)
    row = agents + [info["kappa"], info["eps"], info["reset"], info["stage"],
                    info["t"], info["bound"], f_dist] + tail + interior
    return row, p_bess, f_dist


def random_cost(rng, mode, hi):
    """The plan of an agent in mode on the box [0, hi] with a frozen-residue
    cost: the mode's coordinate deepens the open half cycle, or, at a
    fresh start, either does; sometimes none is open."""
    g = rng.uniform(0.05, 0.4, 2).tolist()
    fresh = rng.random() < 0.2
    return IntervalCost(
        mode=mode, hi=hi,
        mu0=float(rng.choice([0.0, rng.uniform(0.0, 0.3)])),
        g_d=g[0] if mode == 1 or fresh else 0.0,
        g_c=g[1] if mode == 0 or fresh else 0.0,
        theta_b=float(rng.uniform(0.1, 0.5)),
        big_theta=float(rng.uniform(0.0, 1.5)), b=float(rng.uniform(1.5, 2.3)),
    )


def test_iterate_matches_vector_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    resets = {"t_max": 0, "df": 0}
    for case in range(150):
        n = int(rng.integers(1, 9))
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(i, j) for i in range(n) for j in range(i + 2, n)
                  if rng.random() < 0.3]
        w = metropolis_weights(n, edges)
        sched = OptimizerConfig(t_max=int(rng.integers(1, 12)),
                                gamma=float(rng.uniform(0.5, 20.0)))
        opt = OrraOptimizer(w, sched)
        ref = VectorOptimizer(w, sched)
        # every fifth case has zero shares and starts at rest; half of
        # those also have flat costs, so they sit at the origin and every
        # reset clips the dual to a zero cap
        zero_shares = case % 5 == 0
        flat_costs = case % 10 == 0
        # the others' first call sets the tracker from a nonzero start
        u = rng.uniform(0.0, 0.6, (n, 2)) * (not zero_shares)
        u = [(float(d), float(c)) for d, c in u]
        for _ in range(int(rng.integers(1, 40))):
            modes = rng.integers(0, 2, n).tolist()
            # boxes narrow enough, and steps long enough, that both ends clip
            hi = rng.choice([0.0, 0.05, 0.3, 1.0], n).tolist()
            boxes = [(0.0, h) for h in hi]
            shares = ([0.0] * n if zero_shares
                      else (rng.normal(0.0, 0.3, n)
                            * (rng.random(n) < 0.8)).tolist())
            df = float(rng.choice([0.0, 0.01, -0.06, 0.2]))
            plans = [flat(mode, h) if flat_costs else random_cost(rng, mode, h)
                     for mode, h in zip(modes, hi)]
            # the reference takes each cost's slope at the booked pair
            grads = [cost_gradient(m, d, c) for m, (d, c) in zip(plans, u)]
            socs = rng.uniform(0.2, 0.8, n).tolist()
            stage_t = opt.t
            u_ref, info_ref = ref.iterate(u, grads, shares, df, boxes, modes)
            row = []
            u, info = opt.iterate(u, plans, shares, df, socs, row)
            if info["reset"]:
                resets["t_max" if stage_t >= sched.t_max else "df"] += 1
            assert bits(u) == bits(u_ref)
            # the log holds the reference's entries, and the dispatch's
            # net injection and cost
            assert info.keys() == info_ref.keys() | {"p_bess", "f_dist"}
            for key, value in info_ref.items():
                assert bits(info[key]) == bits(value), key
            want, p_bess, f_dist = reference_cells(
                u_ref, info_ref, shares, plans, socs)
            assert bits(row) == bits(want)
            assert bits([info["p_bess"], info["f_dist"]]) == bits(
                [p_bess, f_dist])
            assert (opt.b_y, opt.t, opt.stage) == (ref.b_y, ref.t, ref.stage)
            assert bits(opt.lam) == bits(ref.lam)
            assert bits(opt.y) == bits(ref.y)
    # the cases took both kinds of stage reset
    assert min(resets.values()) > 20
