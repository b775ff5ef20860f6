"""Two-area frequency dynamics with nonlinear governors and droop loads.

Aggregated swing model per area, both areas running the conventional
generators of the `grid` config section (three in the shipped configs)
with first-order governor and turbine lags behind droop feedback, rate
and magnitude limits on mechanical power, a synchronizing tie line, and a
sectional-droop frequency-responsive load in area 1. Forward Euler
at a fixed inner step on plain floats; one call advances one control
interval, and the agent layer reads the state between calls. The
fluctuating net load is a seeded PCG64 draw computed here on Python ints.
"""
from __future__ import annotations

import math


# |df| at which a run counts as diverged, Hz: the shipped runs peak near
# 0.13 Hz, and no grid runs 50 Hz off nominal, so a larger deviation, even
# a finite one, is a plant that has blown up
DF_LIMIT = 50.0


class GridInstabilityError(RuntimeError):
    """Integration produced a non-finite value, or a frequency deviation
    `value` of DF_LIMIT or more."""

    def __init__(self, name, value=None):
        # args holds the constructor's arguments, so the error pickles
        # as it was raised
        super().__init__(name, value)
        self.name, self.value = name, value

    def __str__(self) -> str:
        if self.value is None:
            return f"non-finite value in {self.name}; reduce the time step"
        return (f"{self.name} reached {self.value:.6g} Hz, past the "
                f"{DF_LIMIT:g} Hz bound on |df|: the plant diverged")


def responsive_load(df: float, grid) -> float:
    """Injection of area 1's frequency-responsive loads, MW: the sectional
    droop of the `grid` config section, frr_slope MW/Hz opposing the
    deviation beyond frr_deadband."""
    mag = abs(df) - grid.frr_deadband
    if mag <= 0:
        return 0.0
    return -grid.frr_slope * mag if df > 0 else grid.frr_slope * mag


class Plant:
    """The two-area plant of one run: the constants of its `grid` config
    section for plant steps of dt seconds, and its state, which
    `grid_step` advances in place.

    The state is plain floats, at rest when the plant is built: df, (2,)
    Hz; du_gov, gov and p_m, per area one list with a value per
    generator, MW (AGC command integrators, governor valves, mechanical
    power deviations); p_tie, MW, positive from area 1 into area 2; and
    p_fr, (2,) MW, the responsive-load injections.

    The units are alike when every generator has the same droop: from
    rest they get the same float operations on the same inputs, so they
    stay alike, and `grid_step` integrates one unit per area for the
    whole run. Callers read the state between calls.
    """

    def __init__(self, grid, dt: float) -> None:
        droops = tuple(grid.inv_droops)
        n = len(droops)
        self.df, self.p_fr, self.p_tie = [0.0, 0.0], [0.0, 0.0], 0.0
        self.du_gov, self.gov, self.p_m = (
            ([0.0] * n, [0.0] * n) for _ in range(3))
        self.alike = len(set(droops)) == 1
        # the slew of each area's commands is gain * error, the gain
        # associated as -dt * k_i * share * error was
        share = 1.0 / n
        self.slew_gains = (-dt * grid.k_i * share,
                           -dt * grid.k_i_area2 * share)
        self.step, self.droops = grid.ramp_limit * dt, droops
        # the kernels' constants, in the order they unpack them
        self.constants = (dt, grid.saturation, grid.ramp_limit, grid.t_gov,
                          grid.t_turb, grid.damping, grid.inertia,
                          dt * grid.t_sync, grid.frr_deadband,
                          grid.frr_slope)


def grid_step(plant: Plant, p_bess: float, agc_errors, loads) -> None:
    """Advance the coupled two-area dynamics over one control interval.

    Both areas run the generators of the plant's `grid` section; area 1
    regulates with gain k_i and carries the responsive-load droop, area 2
    regulates with k_i_area2. One explicit-Euler step of the plant's dt per
    entry of loads, area 1's net-load increase at that step, MW. p_bess,
    area 1's storage injection, MW, and agc_errors, the (2,) regulation
    signals integrated into the generator commands (negative error raises
    generation), hold over the interval. AGC splits each error evenly
    among the generators, and the command slew is fixed while the error is
    held; commands slew no faster than each unit's ramp limit and wind up
    no further than its saturation band, so the commands stay followable.

    Finiteness is checked once, at the end: a NaN passes every clamp and an
    infinity in an unclamped integrator (df, gov, p_tie) stays non-finite,
    so a blow-up inside the interval still shows. Then either area's |df|
    reaching DF_LIMIT ends the run as a divergence.
    """
    step, (gain1, gain2), (e1, e2) = plant.step, plant.slew_gains, agc_errors
    x = gain1 * float(e1)
    slew1 = -step if x < -step else step if x > step else x
    x = gain2 * float(e2)
    slew2 = -step if x < -step else step if x > step else x
    kernel = _step_alike if plant.alike else _step_units
    kernel(plant, float(p_bess), slew1, slew2, loads)
    (f1, f2), (fr1, fr2), du, gov, pm = (plant.df, plant.p_fr, plant.du_gov,
                                         plant.gov, plant.p_m)
    # one pass over every value, then, when one is not finite, its group
    if not all(map(math.isfinite, (f1, f2, fr1, fr2, plant.p_tie, *du[0],
                                   *du[1], *gov[0], *gov[1], *pm[0],
                                   *pm[1]))):
        for name, values in (
            ("df", (f1, f2)), ("du_gov", du[0] + du[1]),
            ("gov", gov[0] + gov[1]), ("p_m", pm[0] + pm[1]),
            ("p_fr", (fr1, fr2)), ("p_tie", (plant.p_tie,)),
        ):
            if not all(map(math.isfinite, values)):
                raise GridInstabilityError(name)
    if abs(f1) >= DF_LIMIT or abs(f2) >= DF_LIMIT:
        raise GridInstabilityError("df", max(f1, f2, key=abs))


def _step_alike(plant: Plant, b1, slew1, slew2, loads) -> None:
    """grid_step's plant steps for alike units: one unit per area, in the
    operations of `_step_units`; each area's mechanical-power sum adds that
    unit's value once per generator."""
    (dt, sat, ramp, t_gov, t_turb, damping, inertia, tie_gain, band,
     slope) = plant.constants
    nsat, nramp = -sat, -ramp
    r, gens = plant.droops[0], range(len(plant.droops))
    (f1, f2), p_tie, fr1 = plant.df, plant.p_tie, plant.p_fr[0]
    u1, u2 = plant.du_gov[0][0], plant.du_gov[1][0]
    g1, g2 = plant.gov[0][0], plant.gov[1][0]
    p1, p2 = plant.p_m[0][0], plant.p_m[1][0]
    for load in loads:
        pm_sum1 = pm_sum2 = 0.0
        for _ in gens:
            pm_sum1 += p1
            pm_sum2 += p2
        x = (g1 - p1) / t_turb
        x = p1 + dt * (nramp if x < nramp else ramp if x > ramp else x)
        p1 = nsat if x < nsat else sat if x > sat else x
        g1 = g1 + dt * ((u1 - f1 * r) - g1) / t_gov
        x = u1 + slew1
        u1 = nsat if x < nsat else sat if x > sat else x
        x = (g2 - p2) / t_turb
        x = p2 + dt * (nramp if x < nramp else ramp if x > ramp else x)
        p2 = nsat if x < nsat else sat if x > sat else x
        g2 = g2 + dt * ((u2 - f2 * r) - g2) / t_gov
        x = u2 + slew2
        u2 = nsat if x < nsat else sat if x > sat else x
        mag = abs(f1) - band  # responsive_load's droop, without a call
        fr1 = 0.0 if mag <= 0 else -slope * mag if f1 > 0 else slope * mag
        accel1 = pm_sum1 + b1 + fr1 - load - damping * f1 - p_tie
        accel2 = pm_sum2 - damping * f2 + p_tie
        p_tie = p_tie + tie_gain * (f1 - f2)
        f1 = f1 + dt * accel1 / inertia
        f2 = f2 + dt * accel2 / inertia
    n = len(gens)
    plant.df, plant.p_tie, plant.p_fr[0] = [f1, f2], p_tie, fr1
    plant.du_gov = [u1] * n, [u2] * n
    plant.gov = [g1] * n, [g2] * n
    plant.p_m = [p1] * n, [p2] * n


def _step_units(plant: Plant, b1, slew1, slew2, loads) -> None:
    """grid_step's plant steps, generator by generator."""
    (dt, sat, ramp, t_gov, t_turb, damping, inertia, tie_gain, band,
     slope) = plant.constants
    nsat, nramp = -sat, -ramp
    droops = plant.droops
    gens = range(len(droops))
    (f1, f2), p_tie, fr1 = plant.df, plant.p_tie, plant.p_fr[0]
    du1, du2 = plant.du_gov
    gov1, gov2 = plant.gov
    pm1, pm2 = plant.p_m
    for load in loads:
        # Each generator reads only its own old values and its area's
        # old df. The command slews within the saturation band, the
        # valve follows the command less the droop, and the turbine
        # follows the valve no faster than the ramp limit, within the
        # saturation band. Mechanical power is summed before the step,
        # from 0.0 in generator order as numpy sums; the clamps let NaN
        # through.
        pm_sum1 = 0.0
        for i in gens:
            u, g, p = du1[i], gov1[i], pm1[i]
            pm_sum1 += p
            x = u + slew1
            du1[i] = nsat if x < nsat else sat if x > sat else x
            gov1[i] = g + dt * ((u - f1 * droops[i]) - g) / t_gov
            x = (g - p) / t_turb
            x = p + dt * (nramp if x < nramp else ramp if x > ramp else x)
            pm1[i] = nsat if x < nsat else sat if x > sat else x
        pm_sum2 = 0.0
        for i in gens:
            u, g, p = du2[i], gov2[i], pm2[i]
            pm_sum2 += p
            x = u + slew2
            du2[i] = nsat if x < nsat else sat if x > sat else x
            gov2[i] = g + dt * ((u - f2 * droops[i]) - g) / t_gov
            x = (g - p) / t_turb
            x = p + dt * (nramp if x < nramp else ramp if x > ramp else x)
            pm2[i] = nsat if x < nsat else sat if x > sat else x
        mag = abs(f1) - band  # responsive_load's droop, without a call
        fr1 = 0.0 if mag <= 0 else -slope * mag if f1 > 0 else slope * mag
        # tie power leaves area 1 and enters area 2; the fleet, the net
        # load and the droop are area 1's alone
        accel1 = pm_sum1 + b1 + fr1 - load - damping * f1 - p_tie
        accel2 = pm_sum2 - damping * f2 + p_tie
        p_tie = p_tie + tie_gain * (f1 - f2)
        f1 = f1 + dt * accel1 / inertia
        f2 = f2 + dt * accel2 / inertia
    plant.df, plant.p_tie, plant.p_fr[0] = [f1, f2], p_tie, fr1


# SeedSequence constants (numpy.random.bit_generator) and the PCG64
# multiplier (O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient
# Statistically Good Algorithms for Random Number Generation")
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """A nonnegative integer as little-endian 32-bit words; 0 is one word."""
    if n < 0:
        raise ValueError("seed and hold window must be nonnegative")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _first_uniform(entropy: list) -> float:
    """The first default_rng(entropy).random() of numpy's stream: a
    SeedSequence pool of four words seeds PCG64, which takes one step and
    emits the XSL-RR output's top 53 bits."""
    words = [w for n in entropy for w in _words(n)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _M32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): eight words, paired little-endian
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = (s2 << 64 | s3) << 1 & _M128 | 1
    x = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _M128  # seeded
    x = x * _PCG_MULT + inc & _M128  # the draw's step
    rot, x = x >> 122, (x >> 64 ^ x) & _M64
    x = (x >> rot | x << (64 - rot)) & _M64
    return (x >> 11) * 2.0**-53


def scenario_fluctuation(
    t: float, seed: int, hold: float, low: float, high: float,
) -> float:
    """Piecewise-constant net-load noise, reproducible from the seed: the
    value of hold window k is np.random.default_rng([seed, k]).uniform(low,
    high), computed without numpy."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    low, high = float(low), float(high)
    span = high - low
    if not 0.0 <= span < math.inf:
        raise ValueError("need low <= high with a finite span")
    return low + span * _first_uniform([seed, int(t // hold)])
