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
from .planning import _newton, backup_values

FP_TOL = 1e-10
# the temperatures the corner tests certify; a config outside them is refused
TEMPERATURE_RANGE = (1e-6, 1e4)


@dataclass(frozen=True)
class SoftPlanConfig:
    """Temperature of soft planning."""

    temperature: float

    def __post_init__(self):
        if not 0.0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


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

    Found by soft policy iteration, which is Newton's method on the soft
    Bellman equation (Geist, Scherrer and Pietquin, ICML 2019), to within
    FP_TOL*max(1, temperature) in sup norm. The softmax policy depends on
    q/temperature only, so the scaled tolerance moves it no more than FP_TOL
    does at temperature 1, while an absolute 1e-10 at temperature 1e4 would
    sit below the float noise floor of a fixed point of order 1e5.
    """
    lam = cfg.temperature
    v = _newton(lambda u: soft_bellman_operator(m, lam, u),
                lambda u: softmax_policy(backup_values(m, u), lam), m, FP_TOL * max(1.0, lam))
    return v, backup_values(m, v)


def softmax_policy(q: np.ndarray, temperature: float) -> np.ndarray:
    """Row-wise softmax of the action values at the given temperature."""
    if not 0.0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    z = np.asarray(q, dtype=float) / temperature
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def soft_best_response(
    m: MDPInstance, cfg: SoftPlanConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique entropy-regularized best response: (policy, value, q-table)."""
    v, q = soft_value_iteration(m, cfg)
    return softmax_policy(q, cfg.temperature), v, q
