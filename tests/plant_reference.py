"""Per-step reference of the two-area plant, and test-only plant helpers.

`grid_step` advances the plant one explicit-Euler step on numpy arrays,
the generator lags through `governor_turbine_step`, exactly as the package
did before its kernel moved to one call per control interval on plain
floats. The kernel keeps the same float operations in the same order, so
the two must agree bit for bit; `RefState` converts between the layouts,
`state_of` reads a `Plant`'s state in the kernel's, and `set_state` puts
a built plant into one.

Kept deliberately separate from the package's kernel so the two routes
share no code: the responsive-load droop here is `frr_response`, not
`orra.grid.responsive_load`, and the two areas are walked as array rows
with their own gain, injection, load and droop.
"""
from dataclasses import dataclass

import numpy as np

from orra.grid import GridInstabilityError


def frr_response(df: float, grid) -> float:
    """Frequency-responsive reserve injection for one deviation sample."""
    mag = abs(df) - grid.frr_deadband
    if mag <= 0:
        return 0.0
    return -np.sign(df) * grid.frr_slope * mag


def scenario_step_load(t: float) -> float:
    """Case-study step: nothing before 10 s, then a 5 MW load increase."""
    return 5.0 if t >= 10.0 else 0.0


def state_of(plant) -> dict:
    """A plant's state by group name, every group a tuple (per area, a
    tuple per generator)."""
    return {
        "df": tuple(plant.df), "du_gov": tuple(map(tuple, plant.du_gov)),
        "gov": tuple(map(tuple, plant.gov)),
        "p_m": tuple(map(tuple, plant.p_m)), "p_tie": plant.p_tie,
        "p_fr": tuple(plant.p_fr),
    }


def set_state(plant, **state):
    """Put a built plant into a state given by group name, in the layout of
    `state_of`; a group not named stays as it is. The plant keeps the
    route its droops chose, so each area's units must hold one value each
    unless the droops differ."""
    for name, value in state.items():
        if name in ("du_gov", "gov", "p_m"):
            value = tuple(map(list, value))
        elif name != "p_tie":
            value = list(value)
        setattr(plant, name, value)
    return plant


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
    def from_state(cls, state: dict) -> "RefState":
        """From a state in the layout of `state_of`."""
        return cls(
            np.array(state["df"], dtype=float), np.array(state["du_gov"]),
            np.array(state["gov"]), np.array(state["p_m"]),
            float(state["p_tie"]), np.array(state["p_fr"], dtype=float),
        )

    def to_state(self) -> dict:
        """The same state in the layout of `state_of`."""

        def rows(arr):
            return tuple(tuple(row) for row in arr.tolist())

        return {
            "df": tuple(self.df.tolist()), "du_gov": rows(self.du_gov),
            "gov": rows(self.gov), "p_m": rows(self.p_m),
            "p_tie": float(self.p_tie), "p_fr": tuple(self.p_fr.tolist()),
        }


def governor_turbine_step(gov, p_m, commands, df, grid, dt):
    """Advance one area's generator lags one explicit-Euler step.

    gov, p_m, commands: (n_cg,) arrays; returns the new (gov, p_m). The
    turbine output rate is clamped to the ramp limit and its magnitude to
    the saturation band.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    inv_r = np.asarray(grid.inv_droops, dtype=float)
    valve_target = np.asarray(commands, dtype=float) - df * inv_r
    gov_next = gov + dt * (valve_target - gov) / grid.t_gov
    rate = (gov - p_m) / grid.t_turb
    rate = np.clip(rate, -grid.ramp_limit, grid.ramp_limit)
    p_m_next = np.clip(p_m + dt * rate, -grid.saturation, grid.saturation)
    return gov_next, p_m_next


def grid_step(state: RefState, p_bess, agc_errors, load, grid, dt) -> RefState:
    """One explicit-Euler step of the coupled two-area dynamics.

    Both areas run the generators of `grid`, a plant config section; area
    1 regulates with k_i, takes the storage injection p_bess and the
    net-load increase `load`, MW, and carries the responsive-load droop;
    area 2 regulates with k_i_area2. agc_errors: (2,) regulation signals
    integrated into the generator commands (negative error raises
    generation). Dispatch commands slew no faster than each unit's ramp
    limit and wind up no further than its saturation band, so the commands
    stay followable.
    """
    p_bess = np.array([p_bess, 0.0], dtype=float)
    agc_errors = np.asarray(agc_errors, dtype=float)
    disturbances = np.array([load, 0.0], dtype=float)
    gains = (grid.k_i, grid.k_i_area2)
    df = state.df
    new = state.copy()
    tie_sign = (-1.0, 1.0)  # tie power leaves area 1, enters area 2
    k = len(grid.inv_droops)
    sigma = np.full(k, 1.0 / k)  # AGC splits the error evenly
    step = grid.ramp_limit * dt
    for a in range(2):
        delta = -dt * gains[a] * sigma * agc_errors[a]
        new.du_gov[a] = np.clip(
            state.du_gov[a] + np.clip(delta, -step, step),
            -grid.saturation, grid.saturation,
        )
        new.gov[a], new.p_m[a] = governor_turbine_step(
            state.gov[a], state.p_m[a], state.du_gov[a], df[a], grid, dt,
        )
        frr = frr_response(df[a], grid) if a == 0 else 0.0
        new.p_fr[a] = frr
        accel = (
            state.p_m[a].sum()
            + p_bess[a]
            + frr
            - disturbances[a]
            - grid.damping * df[a]
            + tie_sign[a] * state.p_tie
        )
        new.df[a] = df[a] + dt * accel / grid.inertia
    new.p_tie = state.p_tie + dt * grid.t_sync * (df[0] - df[1])
    for name in ("df", "du_gov", "gov", "p_m", "p_fr"):
        if not np.isfinite(getattr(new, name)).all():
            raise GridInstabilityError(name)
    if not np.isfinite(new.p_tie):
        raise GridInstabilityError("p_tie")
    return new
