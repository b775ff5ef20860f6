"""Tests for error signals and the RBF droop surrogate."""
import warnings

import numpy as np
import pytest

from orra import aie
from orra.aie import (
    COND_LIMIT,
    PROBE_MAX_SAMPLES,
    IllConditioningError,
    InfillViolationError,
    RbfSurrogate,
    aie_shares,
    build_gram,
    cholesky,
    compute_ace,
    condition_bound,
    fit_weights,
    gaussian_basis,
    packed_condition,
)
from orra.grid import responsive_load
from orra.scenario import AieConfig, GridConfig, ScenarioConfig


def test_compute_ace_values():
    assert compute_ace(0, 20, 0) == 0
    assert compute_ace(1.0, 20, -0.05) == pytest.approx(0.0)
    assert compute_ace(2.5, 30, 0.01) == pytest.approx(2.8)


def shares(sigma=(1.0,), p_tie=2.0, d_prime=10.0, df=-0.1, du_cg=0.5,
           pm_cg=0.3, correction=0.0):
    return aie_shares(list(sigma), p_tie, d_prime, df, du_cg, pm_cg,
                      correction)


def test_aie_shares_hand_value():
    assert shares() == pytest.approx([1.2])
    # the learned correction is split like the rest of the error
    assert shares(sigma=(0.25, 0.75), correction=0.4) == pytest.approx(
        [0.4, 1.2])


def test_aie_shares_zero_participation_is_zero():
    # an agent with no participation gets no share of the error
    got = shares(sigma=[0.0, 1.0])
    assert got[0] == 0.0
    assert got[1] == pytest.approx(1.2)


def test_aie_shares_cancellation():
    assert shares(p_tie=1.0, df=-0.1, du_cg=0.3, pm_cg=0.3) == pytest.approx(
        [0.0]
    )


def test_aie_shares_sum_to_area_error():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        sigma = rng.uniform(0.1, 1, size=n)
        sigma /= sigma.sum()
        p_tie, df = float(rng.normal()), float(rng.normal(0, 0.03))
        d_prime = float(rng.uniform(5, 20))
        du_cg, pm_cg, correction = rng.normal(size=3).tolist()
        got = shares(sigma.tolist(), p_tie, d_prime, df, du_cg, pm_cg,
                     correction)
        total = p_tie + d_prime * df + du_cg - pm_cg + correction
        assert sum(got) == pytest.approx(total, abs=1e-12)


def test_aie_shares_match_numpy_expression_bit_for_bit():
    # the array form the shares were computed with before they moved to
    # Python floats, kept here as the reference
    rng = np.random.default_rng(21)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        sigma = rng.dirichlet(np.ones(n))
        if rng.random() < 0.2:
            sigma = np.full(n, 1.0 / n)
        p_tie, d_prime, df, du_cg, pm_cg, correction = (
            rng.normal(size=6) * 10.0 ** rng.integers(-6, 3, size=6)
        ).tolist()
        want = (sigma * (p_tie + d_prime * df) + sigma * du_cg
                - sigma * pm_cg + sigma * correction)
        got = aie_shares(sigma.tolist(), p_tie, d_prime, df, du_cg, pm_cg,
                         correction)
        assert type(got) is list and len(got) == n
        assert np.array(got).tobytes() == want.tobytes()


def test_gaussian_basis_values():
    assert gaussian_basis(0.0, 5.0) == 1.0
    assert gaussian_basis(1.0, 1.0) == pytest.approx(np.exp(-1))
    assert gaussian_basis(0.1, 100.0) == pytest.approx(np.exp(-1))


def test_build_gram_structure():
    assert np.allclose(build_gram([0.02], 100.0), [[1.0]])
    g = np.array(build_gram([0.0, 0.1], 100.0))
    assert g[0, 1] == pytest.approx(np.exp(-1))
    rng = np.random.default_rng(6)
    xs = np.cumsum(rng.uniform(0.01, 0.05, size=6))
    g = np.array(build_gram(xs, 300.0))
    assert np.allclose(g, g.T)
    assert np.allclose(np.diag(g), 1.0)


def test_build_gram_rejects_duplicates():
    with pytest.raises(InfillViolationError):
        build_gram([0.01, 0.05, 0.01], 100.0)


def test_fit_weights_trivial_cases():
    assert fit_weights([[1.0]], [3.0]) == pytest.approx([3.0])
    g = build_gram([0.0, 0.02, 0.04], 3000.0)
    assert fit_weights(g, [0.0, 0.0, 0.0]) == pytest.approx([0.0, 0.0, 0.0])


def test_fit_weights_interpolates_random_samples():
    rng = np.random.default_rng(12)
    for _ in range(20):
        xs = np.sort(rng.choice(np.arange(-0.05, 0.05, 0.008), 4, replace=False))
        vals = rng.normal(size=4)
        g = build_gram(xs, 3000.0)
        w = fit_weights(g, vals)
        for x, v in zip(xs, vals):
            pred = float(np.array([gaussian_basis(x - y, 3000.0)
                                   for y in xs]) @ w)
            assert pred == pytest.approx(v, abs=1e-8)


def test_fit_weights_raises_on_ill_conditioning():
    g = build_gram([0.0, 1e-9], 3000.0)
    with pytest.raises(IllConditioningError):
        fit_weights(g, [1.0, 1.0])
    # a second pivot of exactly 0 and one below 0: the factor stops there,
    # and the fit fails with an infinite condition number
    for g in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]):
        assert cholesky(g) is None
        with pytest.raises(IllConditioningError,
                           match=r"condition number inf "):
            fit_weights(g, [1.0, 1.0])


def test_infill_decide_thresholds():
    s = RbfSurrogate(AieConfig(rbf_d_min=0.005))
    assert s.infill_decide(0.123)
    s.add_sample(0.010, 1.0)
    assert not s.infill_decide(0.012)
    assert s.infill_decide(0.020)


def test_add_sample_too_close_raises():
    s = RbfSurrogate(AieConfig(rbf_d_min=0.005))
    s.add_sample(0.010, 1.0)
    with pytest.raises(InfillViolationError):
        s.add_sample(0.011, 1.0)


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("df,dP", [
    (float("nan"), 1.0), (float("inf"), 1.0), (float("-inf"), 1.0),
    (0.03, float("nan")),
])
def test_add_sample_refuses_a_non_finite_sample(filled, df, dP):
    # refused before any state changes, into an empty surrogate and a
    # filled one alike, and without a warning
    s = RbfSurrogate(AieConfig(rbf_d_min=0.005))
    if filled:
        s.add_sample(0.010, 1.0)
    before = (list(s.sample_df), list(s.by_location), s.weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfillViolationError, match="not finite"):
            s.add_sample(df, dP)
    assert s.sample_df == before[0] and s.by_location == before[1]
    assert s.weights is before[2]


def test_corrected_aie_empty_and_single():
    s = RbfSurrogate(AieConfig())
    assert 2.5 + s.evaluate(0.01) == 2.5
    s.add_sample(0.02, 0.8)
    assert 2.5 + s.evaluate(0.02) == pytest.approx(3.3)


def test_surrogate_exactness_after_every_refit():
    s = RbfSurrogate(AieConfig())
    rng = np.random.default_rng(3)
    for x in np.arange(-0.05, 0.06, 0.0075):
        s.add_sample(float(x), float(rng.normal()))
        for xs, v in zip(s.sample_df, s.sample_dP):
            assert s.evaluate(xs) == pytest.approx(v, abs=1e-8)


def test_gram_stays_positive_definite_along_ladder():
    s = RbfSurrogate(AieConfig(rbf_max_samples=50))
    for i in range(50):
        s.add_sample(i * (s.d_min + 1e-5), float(np.sin(i)))
        gram = build_gram(s.sample_df, s.xi)
        assert np.linalg.eigvalsh(gram).min() > 0


def test_surrogate_settings_validation():
    # eviction keeps the two boundary samples, so the smallest cap the
    # config admits, 3, still takes a new sample
    s = RbfSurrogate(AieConfig(rbf_max_samples=3, rbf_d_min=0.005))
    for x in (0.0, 0.01, 0.02, 0.03):
        s.add_sample(x, x)
    assert s.sample_df == [0.0, 0.02, 0.03]


def test_load_time_probe_rejects_unconditionable_settings():
    # the shipped settings pack 24 samples into a well-conditioned Gram
    assert packed_condition(3000.0, 0.007, 24) == pytest.approx(2.79e6,
                                                                rel=0.01)
    assert packed_condition(1.0, 1e-5, 24) > COND_LIMIT
    with pytest.raises(ValueError, match="gram condition number"):
        RbfSurrogate(AieConfig(rbf_xi=1.0, rbf_d_min=1e-5))
    # a cap beyond the probe's packing is judged on that packing, which
    # is cheap to build and conditioned no worse than the full one
    RbfSurrogate(AieConfig(rbf_max_samples=10**9))
    with pytest.raises(ValueError, match="128 samples"):
        RbfSurrogate(AieConfig(rbf_xi=1.0, rbf_d_min=1e-5,
                               rbf_max_samples=10**9))


def test_a_second_config_with_the_same_settings_factors_nothing(monkeypatch):
    # the probe is a pure function of (rbf_xi, rbf_d_min, m): each setting
    # is factored once, however many configs and surrogates share it
    packed_condition.cache_clear()
    factored = []
    real_condition, real_cholesky = aie.condition_number, aie.cholesky

    def condition(gram):
        factored.append(len(gram))
        return real_condition(gram)

    def factor(gram):
        factored.append(len(gram))
        return real_cholesky(gram)

    monkeypatch.setattr(aie, "condition_number", condition)
    monkeypatch.setattr(aie, "cholesky", factor)
    settings = AieConfig(rbf_xi=2500.0, rbf_d_min=0.008)
    ScenarioConfig(aie=settings)
    assert factored == [24]
    ScenarioConfig(name="other", aie=AieConfig(rbf_xi=2500.0, rbf_d_min=0.008))
    RbfSurrogate(settings)
    assert factored == [24]
    # another cap is another packing
    RbfSurrogate(AieConfig(rbf_xi=2500.0, rbf_d_min=0.008, rbf_max_samples=9))
    assert factored == [24, 9]


def test_float_condition_number_matches_numpys():
    # the probe's settings: three kernel widths, neighbour overlaps
    # exp(-xi d_min^2) from 0.999 to 0.007, and packings of 3 to 48 samples
    # (128 on three settings); the kernel overlaps set the condition
    # number, from about 1 to past 1e19
    grid = [(xi, (p / xi) ** 0.5, m) for xi in (1.0, 3000.0, 1e6)
            for p in (1e-3, 3e-3, 0.01, 0.02, 0.03, 0.05, 0.1, 0.147, 0.3,
                      1.0, 5.0)
            for m in (3, 12, 24, 48)]
    grid += [(3000.0, (p / 3000.0) ** 0.5, PROBE_MAX_SAMPLES)
             for p in (0.05, 0.147, 1.0)]
    # settings whose condition number numpy puts at 0.98, 0.995, 1.005 and
    # 1.02 times COND_LIMIT, for 12, 24 and 48 samples
    grid += [(3000.0, d, m) for m, ds in (
        (12, (0.0033792341840499463, 0.0033769185263546895,
              0.0033753980231441025, 0.003373142267000308)),
        (24, (0.004811001159760353, 0.004809148990652837,
              0.004807939737055867, 0.004806138895614569)),
        (48, (0.005268937187496737, 0.005267401649835075,
              0.005266391593620346, 0.0052648962175379415)),
    ) for d in ds]
    compared = 0
    for xi, d_min, m in grid:
        got = packed_condition(xi, d_min, m)
        want = float(np.linalg.cond(np.array(
            build_gram([d_min * k for k in range(m)], xi))))
        # both are backward stable: each smallest eigenvalue is off by
        # about eps times the largest, so the relative gap grows with the
        # condition number; past 1e14 neither has a digit to compare
        if want <= 1e14:
            assert abs(got - want) <= max(1e-13, 1e-15 * want) * want, (
                xi, d_min, m, got, want)
            compared += 1
        # the verdicts agree but within 0.1% of the limit
        if not COND_LIMIT / 1.001 <= want <= COND_LIMIT * 1.001:
            assert (got <= COND_LIMIT) == (want <= COND_LIMIT), (
                xi, d_min, m, got, want)
    assert compared >= 90


def test_a_fit_past_the_bound_is_judged_on_the_condition_number():
    # 24 samples whose condition number is 0.98 and 1.02 times the limit:
    # the cheap bound exceeds the limit on both, so the condition number
    # itself decides
    for d_min, accepted in ((0.004811001159760353, True),
                            (0.004806138895614569, False)):
        gram = build_gram([d_min * k for k in range(24)], 3000.0)
        low = cholesky(gram)
        assert low is not None
        assert condition_bound(low, gram) > COND_LIMIT
        if accepted:
            w = fit_weights(gram, [1.0] * 24)
            assert np.allclose(np.array(gram) @ w, 1.0, atol=1e-3)
        else:
            with pytest.raises(IllConditioningError,
                               match=r"condition number 1\.02"):
                fit_weights(gram, [1.0] * 24)


def test_the_condition_bound_holds_through_adds_and_evictions():
    # the bound on the Gram of the surrogate's samples is the largest
    # absolute row sum times trace(G^-1), after every added sample and
    # every eviction, and it is never below the condition number
    s = RbfSurrogate(AieConfig(rbf_max_samples=8))
    rng = np.random.default_rng(5)
    evicted = 0
    for _ in range(400):
        df = float(rng.normal(0.0, 0.05))
        if s.infill_decide(df):
            evicted += s.m == s.max_samples
            s.add_sample(df, float(rng.normal()))
            gram = build_gram(s.sample_df, s.xi)
            g = np.array(gram)
            want = (np.abs(g).sum(axis=1).max()
                    * float(np.trace(np.linalg.inv(g))))
            assert condition_bound(cholesky(gram), gram) == pytest.approx(
                want, rel=1e-9)
            assert want >= float(np.linalg.cond(g)) * (1 - 1e-9)
    assert evicted > 10


def test_load_time_probe_rejects_a_kernel_without_overlap():
    # exp(-xi d_min^2) is 0: the probe would see an identity Gram matrix
    for xi, d_min in ((3000.0, 1e300), (1e300, 0.007), (10**300, 10**300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no kernel overlap"):
                RbfSurrogate(AieConfig(rbf_xi=xi, rbf_d_min=d_min))


def test_far_samples_have_no_kernel_and_no_warning():
    # distances and squares past a float's range are kernels of exactly 0
    s = RbfSurrogate(AieConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in ((0.0, 1.0), (1e308, 2.0), (-1e308, 3.0)):
            s.add_sample(x, y)
        assert [s.evaluate(x) for x in (1e308, 0.0, -1e308)] == [2.0, 1.0,
                                                                 3.0]


def test_eviction_keeps_boundary_points():
    s = RbfSurrogate(AieConfig(rbf_max_samples=4, rbf_d_min=0.005))
    for x in (0.0, 0.01, 0.02, 0.03):
        s.add_sample(x, x)
    s.add_sample(0.045, 0.045)
    # 0.01 was the oldest interior sample; the extremes 0.0 and 0.03 survive
    assert 0.0 in s.sample_df and 0.03 in s.sample_df
    assert 0.01 not in s.sample_df
    assert s.m == 4


def test_off_sample_accuracy_on_sectional_droop():
    # ground truth: the config's droop, measured in load convention
    def truth(df):
        return -responsive_load(df, GridConfig())

    s = RbfSurrogate(AieConfig())
    sweep = np.concatenate(
        [
            np.linspace(0, -0.05, 300),
            np.linspace(-0.05, 0.05, 600),
            np.linspace(0.05, 0, 300),
        ]
    )
    for df in sweep:
        if s.infill_decide(df):
            s.add_sample(float(df), truth(float(df)))
    assert s.m >= 5
    grid = np.linspace(-0.05, 0.05, 501)
    errs = np.array([abs(s.evaluate(x) - truth(x)) for x in grid])
    scale = max(abs(truth(x)) for x in grid)
    assert errs.max() <= 0.10 * scale


class ScanSurrogate(RbfSurrogate):
    """The surrogate without its sorted locations: the infill test scans
    every sample, eviction scans for the extremes, and every evaluation
    sums the weighted kernels in sample order. Kept here as the
    reference."""

    def infill_decide(self, df) -> bool:
        if not self.sample_df:
            return True
        return min(abs(df - x) for x in self.sample_df) >= self.d_min

    def add_sample(self, df, dP) -> None:
        if not self.infill_decide(df):
            raise InfillViolationError(f"sample at {df} too close")
        if self.m >= self.max_samples:
            lo = int(np.argmin(self.sample_df))
            hi = int(np.argmax(self.sample_df))
            victim = next(i for i in range(self.m) if i not in (lo, hi))
            for seq in (self.sample_df, self.sample_dP):
                seq.pop(victim)
        self.sample_df.append(float(df))
        self.sample_dP.append(float(dP))
        self.weights = fit_weights(build_gram(self.sample_df, self.xi),
                                   self.sample_dP)

    def evaluate(self, df):
        total = 0.0
        for x, w in zip(self.sample_df, self.weights or ()):
            total += w * gaussian_basis(df - x, self.xi)
        return total


def test_surrogate_matches_the_full_scan_bit_for_bit():
    # 6000 draws over four settings fill each cap and evict; late in each
    # run far locations join, ±1e308 among them, whose kernels underflow
    # to 0 and whose squared distances overflow without a warning. Draws
    # one d_min from a stored sample test the infill threshold itself
    rng = np.random.default_rng(29)
    far = (1e308, -1e308, 5e307, -1e160, 1e154, 1.3e152, -1e152, 1e150)
    for xi, d_min, cap, scale in ((3000.0, 0.007, 24, 0.05),
                                  (3000.0, 0.007, 3, 0.05),
                                  (1e6, 4e-4, 8, 3e-3),
                                  (1e-3, 30.0, 12, 200.0)):
        cfg = AieConfig(rbf_xi=xi, rbf_d_min=d_min, rbf_max_samples=cap)
        fast, scan = RbfSurrogate(cfg), ScanSurrogate(cfg)
        evictions = []

        def checked_evict(evict=fast._evict):
            evict()
            evictions.append(fast.by_location == sorted(fast.sample_df))

        fast._evict = checked_evict
        decisions, values = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1500):
                if k >= 1200 and rng.random() < 0.05:
                    df = float(rng.choice(far))
                elif scan.sample_df and rng.random() < 0.05:
                    df = float(rng.choice(scan.sample_df)
                               + rng.choice((-d_min, d_min)))
                else:
                    df = float(rng.normal(0.0, scale))
                verdict = fast.infill_decide(df)
                decisions.append((verdict, scan.infill_decide(df)))
                if verdict:
                    dP = float(rng.normal())
                    fast.add_sample(df, dP)
                    scan.add_sample(df, dP)
                    assert fast.by_location == sorted(fast.sample_df)
                    assert (np.array(fast.weights).tobytes()
                            == np.array(scan.weights).tobytes())
                for x in (df, float(rng.normal(0.0, scale)),
                          float(rng.choice(far))):
                    values.append((fast.evaluate(x), scan.evaluate(x)))
        assert all(got == want for got, want in decisions)
        assert sum(got for got, _ in decisions) > cap
        assert evictions and all(evictions)
        assert fast.sample_df == scan.sample_df
        assert fast.sample_dP == scan.sample_dP
        got, want = np.array(values).T
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all()
