"""Per-step reference of the two-area plant, and test-only plant helpers.

`grid_step` advances the plant one explicit-Euler step on numpy arrays,
the generator lags through `governor_turbine_step`, exactly as the package
did before its kernel moved to one call per control interval on plain
floats. The kernel keeps the same float operations in the same order, so
the two must agree bit for bit; `RefState` converts between the layouts.

Kept deliberately separate from the package's kernel so the two routes
share no code: the responsive-load droop here is `frr_response`, not
`SectionalDroop.response`.
"""
from dataclasses import dataclass

import numpy as np

from orra.grid import (
    AreaParams,
    GridInstabilityError,
    GridState,
    SectionalDroop,
)


def frr_response(df: float, droop: SectionalDroop) -> float:
    """Frequency-responsive reserve injection for one deviation sample."""
    mag = abs(df) - droop.deadband
    if mag <= 0:
        return 0.0
    return -np.sign(df) * droop.slope * mag


def scenario_step_load(t: float) -> float:
    """Case-study step: nothing before 10 s, then a 5 MW load increase."""
    return 5.0 if t >= 10.0 else 0.0


def default_areas() -> tuple[AreaParams, AreaParams]:
    """Area 1 carries the responsive-load droop; area 2 is plain."""
    return AreaParams(frr=SectionalDroop()), AreaParams()


@dataclass
class RefState:
    df: np.ndarray  # (2,) Hz
    du_gov: np.ndarray  # (2, n_cg) MW, AGC command integrators
    gov: np.ndarray  # (2, n_cg) MW, governor valve states
    p_m: np.ndarray  # (2, n_cg) MW, mechanical power deviations
    p_tie: float  # MW, positive from area 1 into area 2
    p_fr: np.ndarray  # (2,) MW, responsive-load injections

    def copy(self) -> "RefState":
        return RefState(
            self.df.copy(), self.du_gov.copy(), self.gov.copy(),
            self.p_m.copy(), self.p_tie, self.p_fr.copy(),
        )

    @classmethod
    def from_state(cls, state: GridState) -> "RefState":
        """The same state, generators padded to the widest area."""
        n = max(len(row) for row in state.gov)

        def padded(rows):
            out = np.zeros((2, n))
            for a, row in enumerate(rows):
                out[a, :len(row)] = row
            return out

        return cls(
            np.array(state.df, dtype=float), padded(state.du_gov),
            padded(state.gov), padded(state.p_m), float(state.p_tie),
            np.array(state.p_fr, dtype=float),
        )

    def to_state(self, areas) -> GridState:
        """The same state in the kernel's per-area layout."""

        def rows(arr):
            return tuple(
                tuple(arr[a, :area.n_cg].tolist())
                for a, area in enumerate(areas)
            )

        return GridState(
            df=tuple(self.df.tolist()), du_gov=rows(self.du_gov),
            gov=rows(self.gov), p_m=rows(self.p_m), p_tie=float(self.p_tie),
            p_fr=tuple(self.p_fr.tolist()),
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
    state: RefState,
    p_bess,
    agc_errors,
    disturbances,
    areas,
    dt: float = 0.01,
) -> RefState:
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
    tie_sign = (-1.0, 1.0)  # tie power leaves area 1, enters area 2
    for a, area in enumerate(areas):
        k = area.n_cg
        sigma = np.full(k, 1.0 / k)  # AGC splits the error evenly
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
        frr = frr_response(df[a], area.frr) if area.frr is not None else 0.0
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
