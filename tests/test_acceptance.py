"""Acceptance battery: every advertised property, one verdict line each.

Heavy scenario runs are shared through session fixtures: the step-event
case with and without the per-interval centralized reference, the four
signal/participation arms, and the 30-minute fluctuation case.
"""
import collections
import time

import numpy as np
import pytest

from orra.aie import RbfSurrogate
from orra.degradation import rainflow_step
from orra.grid import responsive_load
from orra.optimizer import OrraOptimizer
from orra.oracle import (
    centralized_solve,
    dynamic_regret,
    lemma1_check,
    lemma2_check,
    regret_slope,
)
from orra.scenario import (
    AieConfig,
    GridConfig,
    OptimizerConfig,
    ScenarioConfig,
    ScenarioRunner,
)
from orra.studies import ARMS, nadir, settle_time, stage_cost_gaps, stage_lemma_checks
from oracle_reference import brute_force_solve
from rainflow_reference import rainflow_batch
from test_optimizer import random_instance
from test_oracle import aging_model, plans


def report(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def cs1(tmp_path_factory):
    """Step event with the centralized reference solved every interval."""
    out = str(tmp_path_factory.mktemp("cs1"))
    return ScenarioRunner(ScenarioConfig(), oracle_every=True).run(out)


@pytest.fixture(scope="session")
def cs1_timed(tmp_path_factory):
    """Plain step event, wall-clock measured."""
    out = str(tmp_path_factory.mktemp("cs1_timed"))
    t0 = time.perf_counter()
    result = ScenarioRunner(ScenarioConfig()).run(out)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def arms(tmp_path_factory):
    out = {}
    for signal, bess in ARMS:
        cfg = ScenarioConfig(signal=signal, bess_enabled=bess)
        out[(signal, bess)] = ScenarioRunner(cfg).run(
            str(tmp_path_factory.mktemp(f"{signal}_{bess}")))
    return out


@pytest.fixture(scope="session")
def cs2(tmp_path_factory):
    cfg = ScenarioConfig(
        name="case_study_2", kind="fluctuation", duration=1800.0
    )
    return ScenarioRunner(cfg).run(str(tmp_path_factory.mktemp("cs2")))


def test_criterion_01_energy_neutral_withdrawal(cs1_timed):
    result, wall = cs1_timed
    gap = np.abs(result.d - result.c).max(axis=1)
    # the run must end energy-neutral: momentary zero-gap rows show up
    # all through the transient, so gate on the final state instead
    below = gap < 1e-3
    above = np.nonzero(~below)[0]
    tail = above[-1] + 1 if above.size else 0
    sustained = result.time[-1] - result.time[tail] if below[-1] else 0.0
    ok = bool(below[-1]) and wall < 30.0
    report(
        1, ok,
        f"all-battery |d-c| below 1e-3 MW over the final "
        f"{sustained:.1f} s (final gap {gap[-1]:.1e} MW); "
        f"300 s run took {wall:.1f} s wall",
    )


def test_criterion_02_fair_allocation(cs1):
    cfg = cs1.config
    start = np.searchsorted(cs1.time, cfg.step_time + 5.0)
    agree = total = 0
    for k in range(start, len(cs1.time)):
        idx = np.nonzero(cs1.interior[k])[0]
        if len(idx) < 2:
            continue
        m = cs1.marginals[k, idx]
        total += 1
        scale = np.abs(m).max()
        if scale < 1e-12 or m.max() - m.min() <= 0.05 * scale:
            agree += 1
    share = agree / max(total, 1)
    report(
        2, share >= 0.90,
        f"interior marginals within 5% on {agree}/{total} iterations "
        f"({100 * share:.1f}%, need >= 90%)",
    )


def test_criterion_03_near_optimality(cs1):
    # evaluate stages long enough to have a converged final quarter; the
    # short cascade during the event is cut off by the |df| reset rule
    # after a handful of iterations and never gets one
    min_len = cs1.config.optimizer.t_max // 2
    gaps = stage_cost_gaps(cs1, min_len=min_len)
    worst = max(g["ratio"] for g in gaps)
    detail = ", ".join(
        f"stage {g['stage']} ({g['length']} it): {100 * g['ratio']:.2f}%"
        for g in gaps
    )
    report(
        3, bool(gaps) and worst <= 0.05,
        f"final-quarter cost gap per stage [{detail}] (need <= 5%)",
    )


def run_random_instance(rng):
    """Drive one synthetic tracking instance and check both certificates."""
    w, models, targets = random_instance(rng)
    n = w.shape[0]
    T = len(targets) - 1
    opt = OrraOptimizer(w, OptimizerConfig(t_max=600))
    u = np.zeros((n, 2))
    rows = collections.defaultdict(list)
    nu = None
    for t in range(T + 1):
        aie = np.full(n, -targets[t] / n)
        sol = centralized_solve(models, targets[t], nu_hint=nu)
        nu = sol.nu
        rows["u"].append(u.copy())
        rows["ustar"].append(np.array(sol.u))
        rows["fd"].append(
            sum(m.value(ui[0], ui[1]) for m, ui in zip(models, u))
        )
        rows["fo"].append(
            sum(m.value(di, ci) for m, (di, ci) in zip(models, sol.u))
        )
        u, info = opt.iterate(u, models, aie.tolist(), 0.0, [0.5] * n, [])
        for name in ("s", "lam", "lam_mixed", "y", "y_mixed"):
            rows[name].append(info[name])
        rows["kappa"].append(info["kappa"])
        rows["eps"].append(info["eps"])
    c1 = lemma1_check(
        np.array(rows["u"]), np.array(rows["ustar"]), np.array(rows["s"]),
        np.array(rows["lam"]), np.array(rows["lam_mixed"]),
        np.array(rows["y"]), np.array(rows["y_mixed"]),
        np.array(rows["kappa"]), np.array(rows["eps"]), opt.config.gamma,
        rows["fd"], rows["fo"],
    )
    c2 = lemma2_check(
        np.array(rows["u"]), np.array(rows["ustar"]),
        np.array(rows["kappa"]), max(m.hi for m in models),
    )
    return c1.holds, c2.holds


def test_criterion_04_sublinear_regret(cs1):
    sid, lo, hi = max(cs1.stages, key=lambda st: st[2] - st[1])
    horizons = [h for h in (10, 20, 30, 50, 70, 100, 150) if h <= hi - lo]
    regs = [
        dynamic_regret(cs1.f_dist[lo:hi], cs1.f_oracle[lo:hi], T=h)
        for h in horizons
    ]
    fit = regret_slope(horizons, regs)

    checks = stage_lemma_checks(cs1, cs1.config.optimizer.gamma)
    logged_bad = sum(
        1 for c in checks
        if not (c["lemma1"].holds and c["lemma2"].holds)
    )

    rng = np.random.default_rng(17)
    random_bad = 0
    for _ in range(100):
        h1, h2 = run_random_instance(rng)
        if not (h1 and h2):
            random_bad += 1

    ok = (
        fit.sublinear and fit.spans_decade
        and logged_bad == 0 and random_bad == 0
    )
    report(
        4, ok,
        f"growth exponent {fit.slope:.2f} < 1.0 over a decade "
        f"({fit.n_used} positive horizons); certificate failures: "
        f"{logged_bad}/{len(checks)} logged stages, "
        f"{random_bad}/100 random instances",
    )


def test_criterion_05_dual_bound(cs1, cs2, arms):
    gamma = cs1.config.optimizer.gamma
    runs = [cs1, cs2] + [r for r in arms.values() if r.config.bess_enabled]
    bad = total = 0
    worst = 0.0
    for run in runs:
        b_y = np.maximum.accumulate(np.abs(run.y).max(axis=1))
        limit = gamma * b_y * run.kappa / run.eps
        peak = np.abs(run.lam).max(axis=1)
        total += len(peak)
        bad += int((peak > limit + 1e-9).sum())
        bounded = limit > 0
        if bounded.any():
            worst = max(worst, float((peak[bounded] / limit[bounded]).max()))
    report(
        5, bad == 0,
        f"multiplier bound held on {total - bad}/{total} iterations over "
        f"{len(runs)} runs (tightest margin: {100 * worst:.1f}% of bound)",
    )


def test_criterion_06_tracking_invariant(cs1, cs2, arms):
    runs = [cs1, cs2] + [r for r in arms.values() if r.config.bess_enabled]
    worst = 0.0
    for run in runs:
        drift = run.y[1:].mean(axis=1) - run.h[:-1].mean(axis=1)
        worst = max(worst, float(np.abs(drift).max()))
    report(
        6, worst <= 1e-9,
        f"worst |mean y_t - mean h_(t-1)| = {worst:.1e} MW (need <= 1e-9)",
    )


def test_criterion_07_rainflow_equivalence():
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        walk = np.clip(
            0.5 + np.cumsum(rng.normal(0, 0.05, size=n)), 0.0, 1.0
        )
        stack = ()
        events = []
        for x in walk:
            out, stack = rainflow_step(x, stack)
            events.extend(out)
        # the residues left open count as half cycles
        online = collections.Counter(
            [(e.depth, e.n_cyc) for e in events]
            + [(abs(b - a), 0.5) for a, b in zip(stack, stack[1:])]
        )
        batch = collections.Counter(rainflow_batch(walk))
        if online != batch:
            mismatches += 1
    report(
        7, mismatches == 0,
        f"streaming vs batch cycle multisets identical on "
        f"{1000 - mismatches}/1000 random SoC walks",
    )


def test_criterion_08_surrogate_exactness():
    plant = GridConfig()  # the droop every run uses

    def truth(df):
        return -responsive_load(df, plant)

    s = RbfSurrogate(AieConfig())
    worst_stored = 0.0
    sweep = np.concatenate(
        [
            np.linspace(0.0, -0.05, 300),
            np.linspace(-0.05, 0.05, 600),
            np.linspace(0.05, 0.0, 300),
        ]
    )
    for df in sweep:
        df = float(df)
        if s.infill_decide(df):
            s.add_sample(df, truth(df))
            for x, y in zip(s.sample_df, s.sample_dP):
                worst_stored = max(worst_stored, abs(s.evaluate(x) - y))
    grid = np.linspace(-0.05, 0.05, 501)
    errs = np.array([abs(s.evaluate(x) - truth(x)) for x in grid])
    scale = max(abs(truth(x)) for x in grid)
    ok = worst_stored <= 1e-8 and s.m >= 5 and errs.max() <= 0.10 * scale
    report(
        8, ok,
        f"stored-sample error {worst_stored:.1e} MW after every refit; "
        f"off-sample error {100 * errs.max() / scale:.1f}% of scale over "
        f"+-0.05 Hz with {s.m} points (need <= 10%)",
    )


def test_criterion_09_directional_agc_claims(arms):
    nad = {k: abs(nadir(r.df[:, 0])) for k, r in arms.items()}
    nadir_ok = (
        nad[("AIE", True)] < nad[("AIE", False)]
        and nad[("ACE", True)] < nad[("ACE", False)]
    )
    st_aie = settle_time(
        arms[("AIE", True)].time, arms[("AIE", True)].df[:, 0]
    )
    st_ace = settle_time(
        arms[("ACE", True)].time, arms[("ACE", True)].df[:, 0]
    )
    base = arms[("AIE", False)]
    i0 = np.searchsorted(base.time, base.config.step_time)
    i1 = np.searchsorted(base.time, base.config.step_time + 100.0)
    ramp = base.p_m_total[i1] - base.p_m_total[i0]
    anchor_ok = 2.7 * 0.8 <= ramp <= 2.7 * 1.2
    report(
        9, nadir_ok and st_aie <= st_ace and anchor_ok,
        f"fleet cuts nadir {nad[('AIE', False)]:.3f}->"
        f"{nad[('AIE', True)]:.3f} Hz (inj.-error) and "
        f"{nad[('ACE', False)]:.3f}->{nad[('ACE', True)]:.3f} Hz (classic); "
        f"settle {st_aie:.1f} s <= {st_ace:.1f} s; generators ramp "
        f"{ramp:.2f} MW in 100 s (need 2.7 +- 20%)",
    )


def test_criterion_10_soc_neutrality(cs2):
    cfg = cs2.config.fleet
    in_bounds = (
        cs2.soc.min() >= cfg.soc_min - 1e-9
        and cs2.soc.max() <= cfg.soc_max + 1e-9
    )
    drift = np.abs(cs2.soc[-1] - np.array(cfg.initial_soc)).max()
    report(
        10, in_bounds and drift <= 0.1,
        f"SoC stayed in [{cs2.soc.min():.3f}, {cs2.soc.max():.3f}] over "
        f"30 min; max final drift {drift:.4f} (need <= 0.1 within "
        f"[{cfg.soc_min}, {cfg.soc_max}])",
    )


def test_criterion_11_oracle_matches_brute_force():
    rng = np.random.default_rng(23)
    worst = 0.0
    bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        modes = [int(m) for m in rng.integers(0, 2, size=n)]
        costs = [aging_model(rng, m) for m in modes]
        boxes = []
        interior = []
        for _i in range(n):
            hi = float(rng.uniform(0.2, 1.0))
            boxes.append((0.0, hi))
            interior.append(float(rng.uniform(0.1, 0.9)) * hi)
        signs = np.array([1.0 if m == 1 else -1.0 for m in modes])
        target = round(float((signs * np.array(interior)).sum()), 3)
        models = plans(costs, modes, boxes)
        sol = centralized_solve(models, target)
        q_bf, achieved, _ = brute_force_solve(models, modes, boxes, target)
        err = float(np.abs(np.array(sol.u).sum(axis=1) - q_bf).max())
        worst = max(worst, err)
        if err > 2e-3 or abs(achieved - target) > 5e-4:
            bad += 1
    report(
        11, bad == 0,
        f"solver within 2e-3 MW of 1e-3-grid brute force on "
        f"{200 - bad}/200 random instances (worst {worst:.2e} MW)",
    )
