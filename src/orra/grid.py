"""Two-area frequency dynamics with nonlinear governors and droop loads.

Aggregated swing model per area, conventional generators (three by
default) with first-order governor and turbine lags behind droop feedback,
rate and magnitude limits on mechanical power, a synchronizing tie line,
and a sectional-droop frequency-responsive load in area 1. Forward Euler
at a fixed inner step on plain floats; one call advances one control
interval, and the agent layer reads the state between calls. The
fluctuating net load is a seeded PCG64 draw computed here on Python ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


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


@dataclass(frozen=True)
class SectionalDroop:
    """Piecewise-linear frequency response of aggregated responsive loads."""

    deadband: float = 0.01  # Hz
    slope: float = 40.0  # MW/Hz beyond the deadband

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
    t_sync: float = 10.0  # tie-line synchronizing coefficient, MW/Hz*s
    frr: SectionalDroop | None = None

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


def _area_constants(area: AreaParams, error: float, dt: float) -> tuple:
    """One area's constants over an interval: the command slew its
    generators share (AGC splits the error evenly among them, and it is
    fixed while the error is held), the droop slopes, the saturation band,
    the ramp limit, the two lags, damping, inertia, and the responsive-load
    droop response (None without one)."""
    step = area.ramp_limit * dt
    share = 1.0 / area.n_cg
    x = -dt * area.k_i * share * error
    slew = -step if x < -step else step if x > step else x
    frr = area.frr.response if area.frr is not None else None
    return (slew, area.inv_droops, area.saturation, area.ramp_limit,
            area.t_gov, area.t_turb, area.damping, area.inertia, frr)


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
    areas holds exactly two areas; each one's constants are read once per
    call.

    Finiteness is checked once, at the end: a NaN passes every clamp and an
    infinity in an unclamped integrator (df, gov, p_tie) stays non-finite,
    so a blow-up inside the interval still shows. Then either area's |df|
    reaching DF_LIMIT ends the run as a divergence.
    """
    area1, area2 = areas
    e1, e2 = map(float, agc_errors)
    b1, b2 = map(float, p_bess)
    (slew1, droops1, sat1, ramp1, t_gov1, t_turb1, damping1, inertia1,
     frr1) = _area_constants(area1, e1, dt)
    (slew2, droops2, sat2, ramp2, t_gov2, t_turb2, damping2, inertia2,
     frr2) = _area_constants(area2, e2, dt)
    tie_gain = dt * area1.t_sync
    (f1, f2), p_tie, (fr1, fr2) = state.df, state.p_tie, state.p_fr
    du1, du2 = map(list, state.du_gov)
    gov1, gov2 = map(list, state.gov)
    pm1, pm2 = map(list, state.p_m)
    gens1, gens2 = range(len(du1)), range(len(du2))
    nsat1, nramp1, nsat2, nramp2 = -sat1, -ramp1, -sat2, -ramp2
    for d1, d2 in disturbances:
        # Each generator reads only its own old values and its area's old
        # df. The command slews within the saturation band, the valve
        # follows the command less the droop, and the turbine follows the
        # valve no faster than the ramp limit, within the saturation band.
        # Mechanical power is summed before the step, from 0.0 in generator
        # order as numpy sums; the clamps let NaN through.
        pm_sum1 = 0.0
        for i in gens1:
            u, g, p = du1[i], gov1[i], pm1[i]
            pm_sum1 += p
            x = u + slew1
            du1[i] = nsat1 if x < nsat1 else sat1 if x > sat1 else x
            gov1[i] = g + dt * ((u - f1 * droops1[i]) - g) / t_gov1
            x = (g - p) / t_turb1
            x = p + dt * (nramp1 if x < nramp1 else ramp1 if x > ramp1 else x)
            pm1[i] = nsat1 if x < nsat1 else sat1 if x > sat1 else x
        pm_sum2 = 0.0
        for i in gens2:
            u, g, p = du2[i], gov2[i], pm2[i]
            pm_sum2 += p
            x = u + slew2
            du2[i] = nsat2 if x < nsat2 else sat2 if x > sat2 else x
            gov2[i] = g + dt * ((u - f2 * droops2[i]) - g) / t_gov2
            x = (g - p) / t_turb2
            x = p + dt * (nramp2 if x < nramp2 else ramp2 if x > ramp2 else x)
            pm2[i] = nsat2 if x < nsat2 else sat2 if x > sat2 else x
        fr1 = frr1(f1) if frr1 is not None else 0.0
        fr2 = frr2(f2) if frr2 is not None else 0.0
        # tie power leaves area 1 and enters area 2
        accel1 = pm_sum1 + b1 + fr1 - d1 - damping1 * f1 + (-1.0) * p_tie
        accel2 = pm_sum2 + b2 + fr2 - d2 - damping2 * f2 + 1.0 * p_tie
        p_tie = p_tie + tie_gain * (f1 - f2)
        f1 = f1 + dt * accel1 / inertia1
        f2 = f2 + dt * accel2 / inertia2
    for name, values in (
        ("df", (f1, f2)), ("du_gov", du1 + du2), ("gov", gov1 + gov2),
        ("p_m", pm1 + pm2), ("p_fr", (fr1, fr2)), ("p_tie", (p_tie,)),
    ):
        if not all(map(math.isfinite, values)):
            raise GridInstabilityError(name)
    if abs(f1) >= DF_LIMIT or abs(f2) >= DF_LIMIT:
        raise GridInstabilityError("df", max(f1, f2, key=abs))
    return GridState(
        (f1, f2), (tuple(du1), tuple(du2)), (tuple(gov1), tuple(gov2)),
        (tuple(pm1), tuple(pm2)), p_tie, (fr1, fr2),
    )


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
    t: float, seed: int, hold: float = 60.0, low: float = -6.0,
    high: float = 6.0,
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
