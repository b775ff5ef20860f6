"""Two-area frequency dynamics with nonlinear governors and droop loads.

Aggregated swing model per area, three conventional generators apiece with
first-order governor and turbine lags behind droop feedback, rate and
magnitude limits on mechanical power, a synchronizing tie line, and a
sectional-droop frequency-responsive load in area 1. Forward Euler at a
fixed inner step on plain floats; one call advances one control interval,
and the agent layer reads the state between calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np


class GridInstabilityError(RuntimeError):
    """Integration produced a non-finite value."""

    def __init__(self, name):
        super().__init__(f"non-finite value in {name}; reduce the time step")
        self.name = name


@dataclass(frozen=True)
class SectionalDroop:
    """Piecewise-linear frequency response of aggregated responsive loads."""

    deadband: float = 0.01  # Hz
    slope: float = 40.0  # MW/Hz beyond the deadband

    def __post_init__(self):
        if not 0 <= self.deadband < math.inf:
            raise ValueError("deadband must be nonnegative and finite")
        if not 0 <= self.slope < math.inf:
            raise ValueError("slope must be nonnegative and finite")

    def response(self, df: float) -> float:
        """Injection, MW, opposing the deviation beyond the deadband."""
        mag = abs(df) - self.deadband
        if mag <= 0:
            return 0.0
        return -self.slope * mag if df > 0 else self.slope * mag


@dataclass(frozen=True)
class AreaParams:
    """Aggregate dynamics of one control area."""

    inertia: float = 10.0  # 2H, MW*s/Hz
    damping: float = 1.0  # load damping D, MW/Hz
    inv_droops: tuple = (20.0, 20.0, 20.0)  # per-CG droop slope, MW/Hz
    t_gov: float = 0.2  # s
    t_turb: float = 0.5  # s
    ramp_limit: float = 0.009  # MW/s per CG
    saturation: float = 10.0  # MW per CG
    k_i: float = 0.1  # AGC integral gain, 1/s
    sigma: tuple = (1 / 3, 1 / 3, 1 / 3)  # AGC participation factors
    t_sync: float = 10.0  # tie-line synchronizing coefficient, MW/Hz*s
    frr: SectionalDroop | None = None

    def __post_init__(self):
        for name in ("inertia", "damping", "t_gov", "t_turb", "ramp_limit",
                     "saturation", "t_sync"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.k_i < math.inf:
            raise ValueError("k_i must be nonnegative and finite")
        if len(self.inv_droops) != len(self.sigma):
            raise ValueError("one participation factor per generator")
        if not all(0 < r < math.inf for r in self.inv_droops):
            raise ValueError("droop slopes must be positive and finite")
        if (not all(s >= 0 for s in self.sigma)
                or not abs(sum(self.sigma) - 1) <= 1e-12):
            raise ValueError("participation factors must be >= 0 and sum to 1")

    @property
    def n_cg(self) -> int:
        return len(self.inv_droops)

    @property
    def bias(self) -> float:
        """Textbook frequency-bias coefficient D + sum of droop slopes."""
        return self.damping + float(sum(self.inv_droops))


@dataclass(frozen=True)
class GridState:
    """Plant state at a control-interval boundary, as plain floats."""

    df: tuple  # (2,) Hz
    du_gov: tuple  # per area, one AGC command integrator per generator, MW
    gov: tuple  # per area, governor valve states, MW
    p_m: tuple  # per area, mechanical power deviations, MW
    p_tie: float  # MW, positive from area 1 into area 2
    p_fr: tuple  # (2,) MW, responsive-load injections


def zero_state(areas) -> GridState:
    zeros = tuple((0.0,) * a.n_cg for a in areas)
    return GridState((0.0, 0.0), zeros, zeros, zeros, 0.0, (0.0, 0.0))


def _clamp(x: float, bound: float) -> float:
    """x limited to [-bound, bound]; NaN passes through."""
    return -bound if x < -bound else bound if x > bound else x


def grid_step(
    state: GridState,
    p_bess,
    agc_errors,
    disturbances,
    areas,
    dt: float = 0.01,
) -> GridState:
    """Advance the coupled two-area dynamics over one control interval.

    One explicit-Euler step of dt per row of disturbances, the (2,) net-load
    increases of that step, MW. p_bess: (2,) storage injection per area, MW,
    and agc_errors: (2,) regulation signals integrated into the generator
    commands (negative error raises generation) hold over the interval.
    Commands slew no faster than each unit's ramp limit and wind up no
    further than its saturation band, so the commands stay followable.

    Finiteness is checked once, at the end: a NaN passes every clamp and an
    infinity in an unclamped integrator (df, gov, p_tie) stays non-finite,
    so a blow-up inside the interval still shows.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    # each generator's command slew is fixed while the error is held
    slews = [
        [_clamp(-dt * area.k_i * s * e, area.ramp_limit * dt)
         for s in area.sigma]
        for area, e in zip(areas, map(float, agc_errors))
    ]
    bess = [float(p) for p in p_bess]
    tie_gain = dt * areas[0].t_sync
    df, p_tie, p_fr = state.df, state.p_tie, state.p_fr
    du_gov, gov, p_m = state.du_gov, state.gov, state.p_m
    for dist in disturbances:
        after = []  # per area: (df, du_gov, gov, p_m, p_fr) after the step
        for a, area in enumerate(areas):
            f, sat, ramp = df[a], area.saturation, area.ramp_limit
            du_a, gov_a, pm_a = [], [], []
            pm_sum = 0.0  # from 0.0 in generator order, as numpy sums
            for u, g, p, slew, r in zip(du_gov[a], gov[a], p_m[a], slews[a],
                                        area.inv_droops):
                pm_sum += p
                du_a.append(_clamp(u + slew, sat))
                gov_a.append(g + dt * ((u - f * r) - g) / area.t_gov)
                rate = _clamp((g - p) / area.t_turb, ramp)
                pm_a.append(_clamp(p + dt * rate, sat))
            frr = area.frr.response(f) if area.frr is not None else 0.0
            accel = (
                pm_sum + bess[a] + frr - dist[a] - area.damping * f
                + (-1.0, 1.0)[a] * p_tie  # tie power leaves area 1
            )
            after.append((f + dt * accel / area.inertia, du_a, gov_a, pm_a,
                          frr))
        p_tie = p_tie + tie_gain * (df[0] - df[1])
        df, du_gov, gov, p_m, p_fr = zip(*after)
    new = GridState(
        df, tuple(map(tuple, du_gov)), tuple(map(tuple, gov)),
        tuple(map(tuple, p_m)), p_tie, p_fr,
    )
    for name, values in (
        ("df", new.df), ("du_gov", chain(*new.du_gov)),
        ("gov", chain(*new.gov)), ("p_m", chain(*new.p_m)),
        ("p_fr", new.p_fr), ("p_tie", (new.p_tie,)),
    ):
        if not all(map(math.isfinite, values)):
            raise GridInstabilityError(name)
    return new


def scenario_fluctuation(
    t: float, seed: int, hold: float = 60.0, low: float = -6.0,
    high: float = 6.0,
) -> float:
    """Piecewise-constant net-load noise, reproducible from the seed."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = int(t // hold)
    rng = np.random.default_rng([seed, k])
    return float(rng.uniform(low, high))
