"""Reference solvers for the fleet allocation problem.

Both minimize the summed interval costs subject to the signed powers adding
up to a target, with every agent confined to its mode box.

`brute_force_solve` searches a fixed 1e-3 MW grid on every agent's active
coordinate. The search enumerates the full grid exactly; it is organized as
a running min-plus table over the integer aggregate so four-agent instances
stay tractable, which changes nothing about which assignments are
considered. It is deliberately independent of any multiplier-based solver.

`bisection_solve` is the plain multiplier search: a bisection on the
equality multiplier around a fixed-count bisection per agent on the
stationarity condition. It is slow but has no step logic to get wrong.
"""
import numpy as np


class InfeasibleTargetError(RuntimeError):
    """Target outside the fleet's achievable aggregate range."""

    def __init__(self, target, achievable):
        super().__init__(
            f"target {target:.6f} MW outside achievable range "
            f"[{achievable[0]:.6f}, {achievable[1]:.6f}] MW"
        )
        self.target = target
        self.achievable = achievable


def agent_cost_curve(model, mode, q):
    """Cost of one agent along its active coordinate."""
    q = np.asarray(q, dtype=float)
    if mode == 1:
        return model.value(q, np.zeros_like(q))
    return model.value(np.zeros_like(q), q)


def brute_force_solve(models, modes, boxes, target, step=1e-3):
    """Best on-grid assignment; returns (q per agent, achieved sum, cost).

    Each agent's grid is the multiples of `step` inside its box; the
    aggregate uses +q for discharge agents and -q for charge agents. The
    returned assignment exactly minimizes total cost among all on-grid
    assignments whose aggregate lands in the bin nearest the target.
    """
    grids = []
    contribs = []
    costs = []
    for model, mode, (lo, hi) in zip(models, modes, boxes):
        ks = np.arange(int(np.ceil(lo / step - 1e-9)), int(np.floor(hi / step + 1e-9)) + 1)
        q = ks * step
        sign = 1 if mode == 1 else -1
        grids.append(q)
        contribs.append(sign * ks)
        costs.append(agent_cost_curve(model, mode, q))

    lo_sum = 0
    hi_sum = 0
    cost = np.zeros(1)
    parents = []
    for w, cq in zip(contribs, costs):
        new_lo = lo_sum + int(w.min())
        new_hi = hi_sum + int(w.max())
        size = new_hi - new_lo + 1
        new_cost = np.full(size, np.inf)
        parent = np.full(size, -1, dtype=int)
        span = hi_sum - lo_sum + 1
        for j in range(len(w)):
            dest = lo_sum + int(w[j]) - new_lo
            cand = cost + cq[j]
            region = new_cost[dest : dest + span]
            mask = cand < region
            region[mask] = cand[mask]
            parent[dest : dest + span][mask] = j
        parents.append(parent)
        cost, lo_sum, hi_sum = new_cost, new_lo, new_hi

    target_idx = int(round(target / step))
    target_idx = min(max(target_idx, lo_sum), hi_sum)
    los = [0]
    for w in contribs:
        los.append(los[-1] + int(w.min()))
    q_star = np.zeros(len(models))
    s = target_idx
    for i in range(len(models) - 1, -1, -1):
        j = int(parents[i][s - los[i + 1]])
        q_star[i] = grids[i][j]
        s -= int(contribs[i][j])
    achieved = sum(
        (1 if m == 1 else -1) * q for m, q in zip(modes, q_star)
    )
    total = sum(
        float(agent_cost_curve(mdl, m, np.array([q]))[0])
        for mdl, m, q in zip(models, modes, q_star)
    )
    return q_star, achieved, total


def _cost_arrays(models, modes):
    """Per-agent coefficient arrays along the active coordinate."""
    wear = np.array([2.0 * m.theta_b for m in models])
    g = np.array(
        [m.g_d if mode == 1 else m.g_c for m, mode in zip(models, modes)]
    )
    aging = np.array([m.big_theta * m.b for m in models])
    mu0 = np.array([m.mu0 for m in models])
    bm1 = np.array([m.b - 1.0 for m in models])
    return wear, g, aging, mu0, bm1


def _marginal(arrays, q):
    wear, g, aging, mu0, bm1 = arrays
    mu = mu0 + g * q
    slope = np.where(mu > 0, aging * g * np.maximum(mu, 0.0) ** bm1, 0.0)
    return wear * q + slope


def _best_response(arrays, lo, hi, slope_target, iters=50):
    """q per agent with marginal(q) = slope_target, clamped to [lo, hi]."""
    at_lo = _marginal(arrays, lo) >= slope_target
    at_hi = _marginal(arrays, hi) <= slope_target
    q_lo = lo.copy()
    q_hi = hi.copy()
    for _ in range(iters):
        mid = 0.5 * (q_lo + q_hi)
        high = _marginal(arrays, mid) > slope_target
        q_hi = np.where(high, mid, q_hi)
        q_lo = np.where(high, q_lo, mid)
    q = 0.5 * (q_lo + q_hi)
    return np.where(at_lo, lo, np.where(at_hi, hi, q))


def bisection_solve(models, modes, boxes, target, on_infeasible="raise"):
    """Nested-bisection allocation; returns (q, nu, clamped).

    Same contract as `orra.oracle.centralized_solve` with no hint: modes 1
    discharge (+q aggregate) and 0 charge (-q), boxes [lo, hi] on the
    active coordinate, and a stop once the aggregate is within 1e-7 MW of
    the (possibly clamped) target. A target outside the achievable range
    raises unless on_infeasible is "clamp", which the solver always does.
    """
    modes = [int(m) for m in modes]
    lo = np.array([b[0] for b in boxes], dtype=float)
    hi = np.array([b[1] for b in boxes], dtype=float)
    sign = np.array([1.0 if m == 1 else -1.0 for m in modes])
    arrays = _cost_arrays(models, modes)

    agg_lo = float(np.where(sign > 0, lo, -hi).sum())
    agg_hi = float(np.where(sign > 0, hi, -lo).sum())
    clamped = False
    want = float(target)
    if not agg_lo - 1e-9 <= want <= agg_hi + 1e-9:
        if on_infeasible != "clamp":
            raise InfeasibleTargetError(want, (agg_lo, agg_hi))
        clamped = True
    want = float(np.clip(want, agg_lo, agg_hi))

    def aggregate(nu):
        q = _best_response(arrays, lo, hi, -nu * sign)
        return float((sign * q).sum()), q

    corner = np.maximum(
        np.abs(_marginal(arrays, lo)), np.abs(_marginal(arrays, hi))
    )
    nu_max = max(2.0 * float(corner.max()), 1e-6)
    nu_lo, nu_hi = -nu_max, nu_max
    nu = 0.0
    agg, q = aggregate(nu)
    for _ in range(80):
        if abs(agg - want) <= 1e-7:
            break
        if agg > want:
            nu_lo = nu
        else:
            nu_hi = nu
        nu = 0.5 * (nu_lo + nu_hi)
        agg, q = aggregate(nu)
    return q, nu, clamped
