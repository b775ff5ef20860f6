"""Centralized per-step optimum, dynamic regret, and bound verification.

The oracle solves the same allocation each control interval that the
distributed algorithm approaches online: minimize the summed interval
costs subject to the signed fleet power matching the negated aggregate
injection error, with every agent confined to its mode box. Strict
convexity of the wear term makes the best response to the equality
multiplier unique and monotone, so the solve is a safeguarded Newton search
on the multiplier around a scalar safeguarded Newton inversion of each
agent's marginal cost, on Python floats; both fall back to bisecting a
bracket whenever a Newton step would leave it. A target beyond the fleet's
achievable range is clamped to its nearer end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from numbers import Real


class IncompleteTraceError(ValueError):
    """Regret requested over a window with missing oracle entries."""


@dataclass
class CentralizedSolution:
    u: list  # one (discharge, charge) pair per agent, MW
    nu: float  # equality-constraint multiplier
    residual: float  # |aggregate - target|, MW
    target: float  # the target after clamping to the achievable range
    clamped: bool  # whether the requested target lay outside that range


XTOL = 1e-12  # MW: per-agent root tolerance, and the margin of "free"
TOL = 1e-6  # MW: the solve stops once the aggregate is within 0.1*TOL
ITERS = 80  # most multiplier steps per solve
CERT_TOL = 1e-6  # slack a certificate's left side may exceed its bound by


def _marginal(coef, q):
    """marginal(q) and its derivative wear + aging*g^2*(b-1)*mu^(b-2), for
    coef = (wear, g, aging, mu0, b-1) along the active coordinate."""
    wear, g, aging, mu0, bm1 = coef
    mu = mu0 + g * q
    if not mu > 0:
        return wear * q, wear
    try:
        curve = mu ** (bm1 - 1.0)
    except OverflowError:  # subnormal mu with b near 1: inf, as in numpy
        curve = math.inf
    return wear * q + aging * g * mu**bm1, wear + aging * g * g * bm1 * curve


def _best_response(coef, hi, m_lo, m_hi, slope_target, q):
    """One agent's q with marginal(q) = slope_target, clamped to [0, hi].

    Safeguarded Newton from the start q inside a bracket on the root, which
    is bisected whenever the Newton step would leave it or is not finite.
    A target beyond a box end starts with the bracket shut on that end.
    Since marginal' >= wear, a marginal gap under XTOL*wear puts q within
    XTOL of the root. Returns q and the marginal slope at q.
    """
    wear = coef[0]
    a = hi if m_hi <= slope_target else 0.0
    b = 0.0 if m_lo >= slope_target else hi
    q = min(max(q, a), b)
    for _ in range(100):
        m, dm = _marginal(coef, q)
        gap = m - slope_target
        if abs(gap) <= XTOL * wear or b - a <= XTOL:
            break
        if gap > 0:
            b = q
        else:
            a = q
        step = q - gap / dm
        q = step if a <= step <= b else 0.5 * (a + b)  # false on nan
    return q, dm


def centralized_solve(
    plans, target, nu_hint: float | None = None,
) -> CentralizedSolution:
    """Exact fleet allocation for one interval.

    plans: per-agent IntervalCost plans, whose mode is 1 for discharge (+q
    aggregate) and 0 for charge (-q), with the box [0, hi] on the active
    coordinate and the frozen-residue cost; target: required signed
    aggregate in MW.
    nu_hint: previous step's multiplier, where the multiplier search starts.
    The search stops once the aggregate is within 0.1*TOL of the target,
    or after ITERS multiplier steps.
    """
    # one pass per agent: its cost coefficients along the active
    # coordinate, its sign and box, and its marginals at the box ends.
    # Stationarity of the per-agent Lagrangian: marginal(q) = -nu*sign. The
    # wear term makes every marginal strictly increasing, so the aggregate
    # best response falls monotonically in nu; at +-nu_max every agent sits
    # at the box end that gives agg_lo or agg_hi, which brackets the root.
    agents, mids = [], []
    agg_lo = agg_hi = 0.0
    for m in plans:
        if m.theta_b <= 0:
            raise ValueError("oracle requires a strictly convex wear term")
        h = m.hi
        if m.mode == 1:
            s, g = 1.0, m.g_d
            agg_hi += h
        else:
            s, g = -1.0, m.g_c
            agg_lo -= h
        coef = (2.0 * m.theta_b, g, m.big_theta * m.b, m.mu0, m.b - 1.0)
        ml, mh = _marginal(coef, 0.0)[0], _marginal(coef, h)[0]
        edge = max(abs(ml), abs(mh))
        # max() over the edges in agent order: a NaN first edge holds, a
        # later one is passed over
        corner = max(corner, edge) if agents else edge
        agents.append((coef, s, h, ml, mh))
        mids.append(0.5 * h)
    want = float(target)
    clamped = not agg_lo - 1e-9 <= want <= agg_hi + 1e-9
    want = min(max(want, agg_lo), agg_hi)
    nu_max = max(2.0 * corner, 1e-6)
    nu_lo, nu_hi = -nu_max, nu_max  # agg(nu_lo) >= want >= agg(nu_hi)
    nu = 0.0 if nu_hint is None else min(max(float(nu_hint), -nu_max), nu_max)

    def aggregate(nu, qs):
        # d agg / d nu = -(sum over free agents of 1/marginal'(q))
        total = rate = 0.0
        out = []
        for (coef, s, h, ml, mh), q in zip(agents, qs):
            q, dm = _best_response(coef, h, ml, mh, -nu * s, q)
            out.append(q)
            total += s * q
            if XTOL < q < h - XTOL:
                rate += 1.0 / dm
        return total - want, rate, out

    gap, rate, q = aggregate(nu, mids)
    # safeguarded Newton on nu, as in rtsafe: bisect the bracket when the
    # step would leave it or would not halve the step before last
    dx_old = dx = 2.0 * nu_max
    for _ in range(ITERS):
        if abs(gap) <= 0.1 * TOL:
            break
        if gap > 0:
            nu_lo = nu
        else:
            nu_hi = nu
        newton = nu + gap / rate if rate > 0 else math.nan
        if nu_lo < newton < nu_hi and 2.0 * abs(newton - nu) <= dx_old:
            dx_old, dx = dx, abs(newton - nu)
            nu = newton
        else:
            dx_old, dx = dx, 0.5 * (nu_hi - nu_lo)
            nu = nu_lo + dx
        gap, rate, q = aggregate(nu, q)
    u = [(x, 0.0) if s > 0 else (0.0, x) for x, (_, s, *_) in zip(q, agents)]
    return CentralizedSolution(u, nu, abs(gap), want, clamped)


def dynamic_regret(dist_costs, oracle_costs, T=None) -> float:
    """Cumulative cost gap of the online trajectory against the oracle,
    on Python floats (one correctly rounded sum)."""
    if T is None:
        T = len(dist_costs)
    if len(dist_costs) < T or len(oracle_costs) < T:
        raise IncompleteTraceError(
            f"need {T} logged steps, have {len(dist_costs)} distributed "
            f"and {len(oracle_costs)} oracle entries"
        )
    gaps = [float(d) - float(o)
            for d, o in zip(dist_costs[:T], oracle_costs[:T])]
    if not all(map(math.isfinite, gaps)):
        raise IncompleteTraceError("non-finite cost entries in the window")
    return fsum(gaps)


def _flat(row) -> list:
    """One logged row, one entry per agent, each a number or that agent's
    (d, c) pair, as one list of floats: all agents, and each agent's
    coordinates, in order."""
    return [float(v) for entry in row
            for v in ((entry,) if isinstance(entry, Real) else entry)]


def _sq(x) -> float:
    """The squared Euclidean norm of a flat row."""
    return fsum(v * v for v in x)


def _norm(x) -> float:
    return math.sqrt(_sq(x))


def _minus(x, y) -> list:
    return [a - b for a, b in zip(x, y)]


def _telescoped_distance(u, u_star, kappa) -> float:
    """Sum over rows t < T of (|u_t - u*_t|^2 - |u_{t+1} - u*_t|^2) /
    (2 kappa_t), the primal-distance term both certificates bound; each
    argument holds flat rows."""
    return fsum(
        (_sq(_minus(u[t], u_star[t])) - _sq(_minus(u[t + 1], u_star[t])))
        / (2 * kappa[t])
        for t in range(len(u) - 1)
    )


@dataclass
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    terms: tuple = ()


def lemma1_check(
    u,
    u_star,
    s,
    lam,
    lam_mixed,
    y,
    y_mixed,
    kappa,
    eps,
    gamma,
    dist_costs,
    oracle_costs,
) -> BoundCheck:
    """Evaluate the six-term saddle-point regret bound over one window.

    Row layout: index r holds iteration r quantities; rows 0..T-1 form the
    summed window and row T supplies the (t+1) lookaheads. The second term
    uses the 1/(2*gamma*kappa_t) factor the telescoping derivation yields.
    Each argument is a sequence of rows (lists or arrays), one entry per
    agent (a number or a (d, c) pair); every sum is on Python floats.
    """
    u, u_star, s, lam, lam_mixed, y, y_mixed = (
        [_flat(row) for row in x]
        for x in (u, u_star, s, lam, lam_mixed, y, y_mixed)
    )
    kappa = [float(k) for k in kappa]
    eps = [float(e) for e in eps]
    T = len(u) - 1
    if T < 1:
        raise ValueError("need at least two logged rows")
    n = len(lam[0])

    # each row's network average, one entry per agent
    lam_bar = [[fsum(row) / n] * n for row in lam]
    y_bar = [[fsum(row) / n] * n for row in y]
    window = range(T)

    t1 = _telescoped_distance(u, u_star, kappa)
    nl = [_sq(row) for row in lam_bar]
    t2 = fsum((nl[t] - nl[t + 1]) / (2 * gamma * kappa[t]) for t in window)
    t3 = fsum(kappa[t] / 2 * _sq(s[t]) for t in window)
    t4 = fsum(
        _sq([gamma * kappa[t] * ym - eps[t] * lb
             for ym, lb in zip(y_mixed[t], lam_bar[t])])
        / (2 * gamma * kappa[t])
        for t in window
    )
    t5 = fsum(math.sqrt(nl[t]) * _norm(_minus(y_mixed[t], y_bar[t]))
              for t in window)
    t6 = fsum(2 * _norm(u[t]) * _norm(_minus(lam_mixed[t], lam_bar[t]))
              for t in window)

    lhs = dynamic_regret(dist_costs, oracle_costs, T)
    terms = (t1, t2, t3, t4, t5, t6)
    rhs = fsum(terms)
    return BoundCheck(lhs, rhs, lhs <= rhs + CERT_TOL, terms)


def lemma2_check(u, u_star, kappa, B_u) -> BoundCheck:
    """Check the telescoped primal-distance sum against its path bound.

    u and u_star are sequences of rows, one entry per agent (a number or a
    (d, c) pair); every sum is on Python floats."""
    n = len(u[0])
    u, u_star = [_flat(row) for row in u], [_flat(row) for row in u_star]
    kappa = [float(k) for k in kappa]
    T = len(u) - 1
    if T < 1:
        raise ValueError("need at least two logged rows")
    if any(kappa[t + 1] - kappa[t] > 1e-12 for t in range(T - 1)):
        raise ValueError("stepsizes must be non-increasing over the window")
    s_T = _telescoped_distance(u, u_star, kappa)
    v_T = fsum(_norm(_minus(u_star[t + 1], u_star[t])) / kappa[t]
               for t in range(T))
    bound = 2 * n * B_u**2 / kappa[T - 1] + 2 * n * B_u * v_T
    return BoundCheck(s_T, bound, s_T <= bound + CERT_TOL, (v_T,))


@dataclass
class SlopeFit:
    slope: float
    n_used: int
    spans_decade: bool
    sublinear: bool
    excluded: tuple = ()


def regret_slope(horizons, reg_values) -> SlopeFit:
    """Least-squares exponent of regret growth on log axes, in closed form:
    the covariance of log T and log R over the variance of log T.

    Nonpositive regret values are excluded (and reported); the decade-span
    flag records whether the usable points justify a sublinearity verdict.
    """
    pairs = [(float(h), float(r)) for h, r in zip(horizons, reg_values)]
    excluded = tuple(int(h) for h, r in pairs if not r > 0)
    ts = [h for h, r in pairs if r > 0]
    rs = [r for _, r in pairs if r > 0]
    if len(ts) < 2:
        raise ValueError("need at least two positive regret points to fit")
    xs, ys = [math.log(t) for t in ts], [math.log(r) for r in rs]
    mx, my = fsum(xs) / len(xs), fsum(ys) / len(ys)
    sxx = fsum((x - mx) ** 2 for x in xs)
    if not sxx > 0:
        raise ValueError("need at least two distinct horizons to fit")
    slope = fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    spans_decade = max(ts) / min(ts) >= 10.0 and len(ts) >= 4
    return SlopeFit(slope, len(ts), spans_decade, slope < 1.0, excluded)
