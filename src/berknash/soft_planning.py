"""Entropy-regularized planning: soft Bellman fixed point and softmax
best responses.

The soft backup replaces the hard max with a temperature-weighted
log-sum-exp, which makes the best response unique and smooth in the model
parameter. Everything is computed max-shifted so temperatures down to 1e-6
stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import MDPInstance
from .planning import backup_values


class SoftPlanConvergenceError(RuntimeError):
    """Soft value iteration hit its iteration cap before reaching fp_tol."""


@dataclass(frozen=True)
class SoftPlanConfig:
    """Temperature and fixed-point solve controls for soft planning."""

    temperature: float
    fp_tol: float = 1e-10
    max_iters: int = 10**6

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.fp_tol <= 0.0:
            raise ValueError(f"fp_tol must be positive, got {self.fp_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


def soft_bellman_operator(
    m: MDPInstance, temperature: float, v: np.ndarray
) -> np.ndarray:
    """(Tv)(x) = temperature * log sum_a exp(q(x,a)/temperature)."""
    z = backup_values(m, v) / temperature
    rows = np.arange(z.shape[0])
    best = z.argmax(axis=1)
    top = z[rows, best]
    # log1p over all but the first max: scipy's bytes, and an exact tie gives log 2
    e = np.exp(z - top[:, None])
    e[rows, best] = 0.0
    return temperature * (top + np.log1p(e.sum(axis=1)))


def soft_value_iteration(
    m: MDPInstance, cfg: SoftPlanConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the soft Bellman operator plus its action-value table.

    Stops when successive iterates differ by at most
    fp_tol*(1-beta)/(2*beta) in sup norm, which bounds the distance to the
    true fixed point by fp_tol.
    """
    beta = m.discount
    threshold = cfg.fp_tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros(m.num_states)
    for _ in range(cfg.max_iters):
        v_next = soft_bellman_operator(m, cfg.temperature, v)
        gap = np.abs(v_next - v).max()
        v = v_next
        if gap <= threshold:
            return v, backup_values(m, v)
    raise SoftPlanConvergenceError(
        f"soft value iteration did not reach fp_tol={cfg.fp_tol:g} within "
        f"{cfg.max_iters} iterations; the tolerance may be below float precision"
    )


def softmax_policy(q: np.ndarray, temperature: float) -> np.ndarray:
    """Row-wise softmax of the action values at the given temperature."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(q, dtype=float) / temperature
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def soft_best_response(
    m: MDPInstance, cfg: SoftPlanConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique entropy-regularized best response: (policy, value, q-table)."""
    v, q = soft_value_iteration(m, cfg)
    return softmax_policy(q, cfg.temperature), v, q
