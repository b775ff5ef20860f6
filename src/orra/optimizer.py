"""Distributed primal-dual coordination of the storage fleet.

Each agent keeps a local dual estimate of the shared power-balance price
and a tracker of the network-average constraint violation. One iteration
per control interval: gossip-mix the dual and tracking variables with the
doubly stochastic weight matrix, descend the local cost along the saddle
direction, project onto the agent's mode box, ascend the dual against the
mixed tracker, then refresh the tracker with the local constraint change.
Stepsizes decay polynomially inside a stage and restart when the horizon
cap is hit or the frequency deviation spikes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LearningSchedule:
    """Per-stage stepsize decay law and the stage restart triggers."""

    kappa0: float = 0.3
    eps0: float = 0.3
    alpha: float = 0.5
    beta: float = 0.75
    t_max: int = 600
    f_threshold: float = 0.05  # Hz

    def __post_init__(self):
        if not 0 < self.kappa0 < math.inf:
            raise ValueError("kappa0 must be positive and finite")
        if not 0 < self.eps0 <= 1:
            raise ValueError("eps0 must lie in (0, 1]")
        if not 0 < self.alpha <= self.beta < 1:
            raise ValueError("need 0 < alpha <= beta < 1")
        # sublinear-regret decay window
        if 2 * self.beta - 3 * self.alpha > 1e-12:
            raise ValueError("need 2*beta - 3*alpha <= 0")
        if 2 * self.beta - self.alpha - 1 > 1e-12:
            raise ValueError("need 2*beta - alpha - 1 <= 0")
        if not 1 <= self.t_max < math.inf:
            raise ValueError("t_max must be finite and at least 1")
        if not 0 < self.f_threshold < math.inf:
            raise ValueError("f_threshold must be positive and finite")

    def rates(self, t: int) -> tuple[float, float]:
        if t <= 1:
            return self.kappa0, self.eps0
        return self.kappa0 * t**-self.alpha, self.eps0 * t**-self.beta


def schedule_step(t: int, df: float, schedule: LearningSchedule):
    """Advance the stage counter one interval.

    Returns (kappa, eps, t_next, reset). The reset fires before the rates
    are read, so the first interval of a fresh stage runs at full gain.
    """
    reset = t >= schedule.t_max or abs(df) >= schedule.f_threshold
    if reset:
        t = 0
    kappa, eps = schedule.rates(t)
    return kappa, eps, t + 1, reset


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


@dataclass
class OrraOptimizer:
    """Stateful wrapper: schedule, dual clipping, and per-iteration logs."""

    weights: np.ndarray
    schedule: LearningSchedule = field(default_factory=LearningSchedule)
    gamma: float = 10.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        n = self.weights.shape[0]
        self.n = n
        self.lam = np.zeros(n)
        self.y = None
        self.h_prev = None
        self.t = 0
        self.b_y = 0.0
        self.stage = 0

    def iterate(self, u, grads, aie_shares, df, intervals, modes):
        """Advance every agent one control interval; returns (u_next, info)."""
        u = np.asarray(u, dtype=float)
        aie_shares = np.asarray(aie_shares, dtype=float)
        if self.y is None:
            h0 = constraint_h(u, aie_shares)
            self.y = h0.copy()
            self.h_prev = h0.copy()
            self.b_y = float(np.abs(h0).max(initial=0.0))

        kappa, eps, t_next, reset = schedule_step(self.t, df, self.schedule)
        if reset:
            self.stage += 1
            # restart invalidates the accumulated decay headroom: pull the
            # price back inside the fresh-stage envelope
            cap = self.gamma * self.b_y * self.schedule.kappa0 / self.schedule.eps0
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
