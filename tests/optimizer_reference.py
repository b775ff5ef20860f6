"""Vectorised reference of the distributed optimizer's iteration.

`orra_iteration` and its five pieces run every agent's update as numpy
expressions over (n,) and (n, 2) arrays, and `VectorOptimizer` wraps them
with the schedule, the dual clip and the log, exactly as the package did
before `OrraOptimizer.iterate` moved to one loop per agent on plain
floats. The loop keeps the same float operations in the same order, so
the two must agree bit for bit.

Kept deliberately separate from the package's loop so the two routes
share no update code; only the scalar stage schedule is shared.
`cost_gradient` is the slope of a frozen-residue cost, which the package
computes inline where it prices the booked pair and the new point.
"""
import numpy as np

from orra.optimizer import schedule_step


def cost_gradient(model, d, c):
    """(d f/d d, d f/d c) of an IntervalCost plan's cost at (d, c), in the
    float operations the package uses."""
    _, _, mu0, g_d, g_c, theta_b, big_theta, b = model
    mu = mu0 + g_d * d + g_c * c
    wear = 2.0 * theta_b * (d - c)
    aging = big_theta * b * mu ** (b - 1.0) if mu > 0 else 0.0
    return wear + aging * g_d, -wear + aging * g_c


def constraint_h(u: np.ndarray, aie_shares: np.ndarray) -> np.ndarray:
    """Local power-balance violation: net injection plus the agent's share."""
    u = np.asarray(u, dtype=float)
    return u[:, 0] - u[:, 1] + np.asarray(aie_shares, dtype=float)


def gradient_s(grads: np.ndarray, lam_mixed: np.ndarray) -> np.ndarray:
    """Saddle direction: cost slopes shifted by the mixed dual price."""
    grads = np.asarray(grads, dtype=float)
    lam_mixed = np.asarray(lam_mixed, dtype=float)
    return np.stack(
        [grads[:, 0] + lam_mixed, -grads[:, 1] + lam_mixed], axis=1
    )


def primal_update(u, s, kappa, intervals, modes) -> np.ndarray:
    """Step against the saddle direction and project onto the mode boxes."""
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    intervals = np.asarray(intervals, dtype=float)
    modes = np.asarray(modes)
    d = u[:, 0] - kappa * s[:, 0]
    c = u[:, 1] + kappa * s[:, 1]
    lo, hi = intervals[:, 0], intervals[:, 1]
    discharging = modes == 1
    d = np.where(discharging, np.clip(d, lo, hi), 0.0)
    c = np.where(discharging, 0.0, np.clip(c, lo, hi))
    return np.stack([d, c], axis=1)


def dual_update(lam_mixed, y_mixed, kappa, eps, gamma) -> np.ndarray:
    """Leaky ascent of the local price against the mixed tracker."""
    return (1.0 - eps) * np.asarray(lam_mixed, dtype=float) + (
        gamma * kappa * np.asarray(y_mixed, dtype=float)
    )


def tracking_update(y_mixed, h_new, h_prev) -> np.ndarray:
    """Dynamic average tracking of the network constraint violation."""
    return (
        np.asarray(y_mixed, dtype=float)
        + np.asarray(h_new, dtype=float)
        - np.asarray(h_prev, dtype=float)
    )


def orra_iteration(
    u, grads, aie_shares, lam, y, h_prev, weights, kappa, eps, gamma,
    intervals, modes,
):
    """One synchronized pass of every agent's update.

    Pure function over explicit state; returns the new decisions plus the
    advanced dual, tracker, and constraint memory.
    """
    weights = np.asarray(weights, dtype=float)
    lam_mixed = weights @ np.asarray(lam, dtype=float)
    y_mixed = weights @ np.asarray(y, dtype=float)
    s = gradient_s(grads, lam_mixed)
    u_next = primal_update(u, s, kappa, intervals, modes)
    lam_next = dual_update(lam_mixed, y_mixed, kappa, eps, gamma)
    h_new = constraint_h(u_next, aie_shares)
    y_next = tracking_update(y_mixed, h_new, h_prev)
    return u_next, lam_next, y_next, h_new, lam_mixed, y_mixed, s


class VectorOptimizer:
    """The stateful wrapper over `orra_iteration`: schedule, dual clip,
    and per-iteration log, with every per-agent entry an array."""

    def __init__(self, weights, config):
        self.weights = np.asarray(weights, dtype=float)
        self.config = config
        self.gamma = config.gamma
        self.lam = np.zeros(self.weights.shape[0])
        self.y = None
        self.h_prev = None
        self.t = 0
        self.b_y = 0.0
        self.stage = 0

    def iterate(self, u, grads, aie_shares, df, intervals, modes):
        u = np.asarray(u, dtype=float)
        aie_shares = np.asarray(aie_shares, dtype=float)
        if self.y is None:
            h0 = constraint_h(u, aie_shares)
            self.y = h0.copy()
            self.h_prev = h0.copy()
            self.b_y = float(np.abs(h0).max(initial=0.0))

        kappa, eps, t_next, reset = schedule_step(self.t, df, self.config)
        if reset:
            self.stage += 1
            cap = self.gamma * self.b_y * self.config.kappa0 / self.config.eps0
            self.lam = np.clip(self.lam, -cap, cap)
        bound = self.gamma * self.b_y * kappa / eps

        lam_t = self.lam.copy()
        y_t = self.y.copy()
        u_next, lam_next, y_next, h_new, lam_mixed, y_mixed, s = (
            orra_iteration(
                u, grads, aie_shares, lam_t, y_t, self.h_prev, self.weights,
                kappa, eps, self.gamma, intervals, modes,
            )
        )
        info = {
            "t": self.t if not reset else 0,
            "stage": self.stage,
            "reset": reset,
            "kappa": kappa,
            "eps": eps,
            "lam": lam_t,
            "lam_mixed": lam_mixed,
            "y": y_t,
            "y_mixed": y_mixed,
            "s": s,
            "h": h_new,
            "bound": bound,
        }
        self.lam = lam_next
        self.y = y_next
        self.h_prev = h_new
        self.t = t_next
        self.b_y = max(self.b_y, float(np.abs(y_next).max(initial=0.0)))
        return u_next, info
