"""Two-area frequency dynamics with nonlinear governors and droop loads.

Aggregated swing model per area, three conventional generators apiece with
first-order governor and turbine lags behind droop feedback, rate and
magnitude limits on mechanical power, a synchronizing tie line, and a
sectional-droop frequency-responsive load in area 1. Forward Euler at a
fixed inner step; the agent layer reads the state once per control
interval.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        if self.deadband < 0:
            raise ValueError("deadband must be nonnegative")
        if self.slope < 0:
            raise ValueError("slope must be nonnegative")

    def response(self, df: float) -> float:
        mag = abs(df) - self.deadband
        if mag <= 0:
            return 0.0
        return -np.sign(df) * self.slope * mag


def frr_response(df: float, droop: SectionalDroop) -> float:
    """Frequency-responsive reserve injection for one deviation sample."""
    return droop.response(df)


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.k_i < 0:
            raise ValueError("k_i must be nonnegative")
        if len(self.inv_droops) != len(self.sigma):
            raise ValueError("one participation factor per generator")
        if any(r <= 0 for r in self.inv_droops):
            raise ValueError("droop slopes must be positive")
        if any(s < 0 for s in self.sigma) or abs(sum(self.sigma) - 1) > 1e-12:
            raise ValueError("participation factors must be >= 0 and sum to 1")

    @property
    def n_cg(self) -> int:
        return len(self.inv_droops)

    @property
    def bias(self) -> float:
        """Textbook frequency-bias coefficient D + sum of droop slopes."""
        return self.damping + float(sum(self.inv_droops))


def default_areas() -> tuple[AreaParams, AreaParams]:
    """Area 1 carries the responsive-load droop; area 2 is plain."""
    return AreaParams(frr=SectionalDroop()), AreaParams()


@dataclass
class GridState:
    df: np.ndarray  # (2,) Hz
    du_gov: np.ndarray  # (2, n_cg) MW, AGC command integrators
    gov: np.ndarray  # (2, n_cg) MW, governor valve states
    p_m: np.ndarray  # (2, n_cg) MW, mechanical power deviations
    p_tie: float  # MW, positive from area 1 into area 2
    p_fr: np.ndarray  # (2,) MW, responsive-load injections
    disturbance: np.ndarray  # (2,) MW, net-load increase

    def copy(self) -> "GridState":
        return GridState(
            self.df.copy(), self.du_gov.copy(), self.gov.copy(),
            self.p_m.copy(), self.p_tie, self.p_fr.copy(),
            self.disturbance.copy(),
        )


def zero_state(areas) -> GridState:
    n = max(a.n_cg for a in areas)
    return GridState(
        df=np.zeros(2),
        du_gov=np.zeros((2, n)),
        gov=np.zeros((2, n)),
        p_m=np.zeros((2, n)),
        p_tie=0.0,
        p_fr=np.zeros(2),
        disturbance=np.zeros(2),
    )


def governor_turbine_step(gov, p_m, commands, df, area: AreaParams, dt):
    """Advance one area's generator lags one explicit-Euler step.

    gov, p_m, commands: (n_cg,) arrays; returns the new (gov, p_m). The
    turbine output rate is clamped to the ramp limit and its magnitude to
    the saturation band.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    inv_r = np.asarray(area.inv_droops, dtype=float)
    valve_target = np.asarray(commands, dtype=float) - df * inv_r
    gov_next = gov + dt * (valve_target - gov) / area.t_gov
    rate = (gov - p_m) / area.t_turb
    rate = np.clip(rate, -area.ramp_limit, area.ramp_limit)
    p_m_next = np.clip(p_m + dt * rate, -area.saturation, area.saturation)
    return gov_next, p_m_next


def grid_step(
    state: GridState,
    p_bess,
    agc_errors,
    disturbances,
    areas,
    dt: float = 0.01,
) -> GridState:
    """One explicit-Euler step of the coupled two-area dynamics.

    p_bess: (2,) storage injection per area, MW; agc_errors: (2,) regulation
    signals integrated into the generator commands (negative error raises
    generation); disturbances: (2,) net-load increases, MW. Dispatch
    commands slew no faster than each unit's ramp limit and wind up no
    further than its saturation band, so the commands stay followable.
    """
    p_bess = np.asarray(p_bess, dtype=float)
    agc_errors = np.asarray(agc_errors, dtype=float)
    disturbances = np.asarray(disturbances, dtype=float)
    df = state.df
    new = state.copy()
    new.disturbance = disturbances.copy()
    tie_sign = (-1.0, 1.0)  # tie power leaves area 1, enters area 2
    for a, area in enumerate(areas):
        k = area.n_cg
        sigma = np.asarray(area.sigma, dtype=float)
        delta = -dt * area.k_i * sigma * agc_errors[a]
        step = area.ramp_limit * dt
        new.du_gov[a, :k] = np.clip(
            state.du_gov[a, :k] + np.clip(delta, -step, step),
            -area.saturation, area.saturation,
        )
        gov_next, p_m_next = governor_turbine_step(
            state.gov[a, :k], state.p_m[a, :k], state.du_gov[a, :k],
            df[a], area, dt,
        )
        new.gov[a, :k] = gov_next
        new.p_m[a, :k] = p_m_next
        frr = area.frr.response(df[a]) if area.frr is not None else 0.0
        new.p_fr[a] = frr
        accel = (
            state.p_m[a, :k].sum()
            + p_bess[a]
            + frr
            - disturbances[a]
            - area.damping * df[a]
            + tie_sign[a] * state.p_tie
        )
        new.df[a] = df[a] + dt * accel / area.inertia
    new.p_tie = state.p_tie + dt * areas[0].t_sync * (df[0] - df[1])
    for name in ("df", "du_gov", "gov", "p_m", "p_fr"):
        if not np.isfinite(getattr(new, name)).all():
            raise GridInstabilityError(name)
    if not np.isfinite(new.p_tie):
        raise GridInstabilityError("p_tie")
    return new


def scenario_step_load(t: float) -> float:
    """Case-study step: nothing before 10 s, then a 5 MW load increase."""
    return 5.0 if t >= 10.0 else 0.0


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
