"""Finite discounted MDPs, stationary policies, and induced-chain quantities.

Conventions used throughout the package:

- ``kernel`` is a dense ``(S, m, S)`` array of transition probabilities
  ``kernel[x, a, y] = Pr(y | x, a)``.
- ``rewards`` is a dense ``(S, m)`` array.
- a policy is a dense ``(S, m)`` array whose rows are distributions over
  actions; value functions and state distributions are length-``S`` vectors.

All arrays are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Row sums of stochastic tables must match 1 this tightly.
ROW_SUM_TOL = 1e-12
# Entries below this are treated as structural zeros of the support graph.
SUPPORT_TOL = 1e-15
# A stationary solve must balance to this L1 residual.
BALANCE_TOL = 1e-10


class ReducibleChainError(ValueError):
    """Raised when a chain lacks a unique stationary distribution."""


@dataclass(frozen=True)
class MDPInstance:
    """A finite discounted MDP ``(X, A, P, r, beta, mu0)``.

    Construction only coerces shapes and dtypes; call
    :func:`validate_instance` to enforce stochasticity and range invariants.
    """

    kernel: np.ndarray
    rewards: np.ndarray
    discount: float
    initial_dist: np.ndarray

    def __post_init__(self):
        kernel = np.ascontiguousarray(np.asarray(self.kernel, dtype=float))
        rewards = np.ascontiguousarray(np.asarray(self.rewards, dtype=float))
        initial = np.ascontiguousarray(np.asarray(self.initial_dist, dtype=float))
        for arr in (kernel, rewards, initial):
            arr.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "discount", float(self.discount))
        object.__setattr__(self, "initial_dist", initial)

    @property
    def num_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def num_actions(self) -> int:
        return self.kernel.shape[1]

    def with_kernel(self, kernel: np.ndarray) -> "MDPInstance":
        """Subjective view: the same decision problem under another kernel."""
        return replace(self, kernel=kernel)


def validate_instance(m: MDPInstance) -> None:
    """Check every MDPInstance invariant, raising ValueError on the first hit.

    Error messages name the offending row or field so malformed configs can
    be fixed without digging through arrays.
    """
    if m.kernel.ndim != 3:
        raise ValueError(f"kernel must have shape (S, m, S), got {m.kernel.shape}")
    S, A = m.num_states, m.num_actions
    if S < 1 or A < 1:
        raise ValueError(f"state/action counts must be positive, got S={S}, m={A}")
    if m.kernel.shape != (S, A, S):
        raise ValueError(f"kernel must have shape (S, m, S), got {m.kernel.shape}")
    if m.rewards.shape != (S, A):
        raise ValueError(f"rewards must have shape (S, m)={S, A}, got {m.rewards.shape}")
    if m.initial_dist.shape != (S,):
        raise ValueError(
            f"initial_dist must have shape ({S},), got {m.initial_dist.shape}"
        )
    if not (0.0 < m.discount < 1.0):
        raise ValueError(f"discount out of range (0, 1): {m.discount}")
    for name, arr, axes in (("kernel", m.kernel, ("x", "a", "x'")),
                            ("rewards", m.rewards, ("x", "a")),
                            ("initial_dist", m.initial_dist, ("x",))):
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            where = ", ".join(f"{axis}={i}" for axis, i in zip(axes, bad))
            raise ValueError(f"{name} non-finite at ({where})")
    if np.any(m.kernel < 0.0):
        x, a, y = np.argwhere(m.kernel < 0.0)[0]
        raise ValueError(f"kernel negative at (x={x}, a={a}, x'={y})")
    row_sums = m.kernel.sum(axis=2)
    off = np.abs(row_sums - 1.0)
    if np.any(off > ROW_SUM_TOL):
        x, a = np.unravel_index(np.argmax(off), off.shape)
        raise ValueError(
            f"kernel row (x={x}, a={a}) sums to {row_sums[x, a]:.15g}, not 1"
        )
    if np.any(m.initial_dist < 0.0):
        x = int(np.argwhere(m.initial_dist < 0.0)[0])
        raise ValueError(f"initial_dist negative at state {x}")
    total = m.initial_dist.sum()
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"initial_dist sums to {total:.15g}, not 1")


def uniform_policy(num_states: int, num_actions: int) -> np.ndarray:
    return np.full((num_states, num_actions), 1.0 / num_actions)


def induced_kernel(m: MDPInstance, pi: np.ndarray) -> np.ndarray:
    """State-to-state kernel of the chain run by ``pi``: sum_a pi(a|x) P(.|x,a)."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (m.num_states, m.num_actions):
        raise ValueError(
            f"policy shape {pi.shape} does not match instance "
            f"({m.num_states}, {m.num_actions})"
        )
    return np.einsum("xa,xay->xy", pi, m.kernel)


def _check_irreducible(P: np.ndarray) -> None:
    """Structural strong-connectivity check on the support graph of ``P``.

    Entries below SUPPORT_TOL count as exact zeros, so the check is
    deterministic and independent of how the kernel was computed.
    """
    n = P.shape[0]
    # reach[i, j]: j is reachable from i; squaring doubles the path length
    reach = (P > SUPPORT_TOL) | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 1).bit_length()):
        reach = reach @ reach
    if not reach[0].all():
        j = int(np.flatnonzero(~reach[0])[0])
        raise ReducibleChainError(
            f"chain is reducible: state {j} is not reachable from state 0"
        )
    if not reach[:, 0].all():
        j = int(np.flatnonzero(~reach[:, 0])[0])
        raise ReducibleChainError(
            f"chain is reducible: state 0 is not reachable from state {j}"
        )


def stationary_distribution(Ppi: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an irreducible row-stochastic chain.

    Solves the balance equations directly (one equation replaced by the
    normalization constraint), so periodic-but-irreducible chains are fine.
    """
    Ppi = np.asarray(Ppi, dtype=float)
    n = Ppi.shape[0]
    if Ppi.shape != (n, n):
        raise ValueError(f"expected a square kernel, got shape {Ppi.shape}")
    _check_irreducible(Ppi)

    A = Ppi.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(A, b)
    mu = np.maximum(mu, 0.0)
    mu /= mu.sum()

    residual = np.abs(mu @ Ppi - mu).sum()
    if residual > BALANCE_TOL:
        raise RuntimeError(
            f"stationary solve residual {residual:.3g} exceeds {BALANCE_TOL:.3g}"
        )
    return mu


def state_action_frequencies(m: MDPInstance, pi: np.ndarray) -> np.ndarray:
    """Long-run joint frequencies d(x,a) = mu_pi(x) pi(a|x) under the true kernel."""
    mu = stationary_distribution(induced_kernel(m, pi))
    return mu[:, None] * np.asarray(pi, dtype=float)


def policy_value(m: MDPInstance, pi: np.ndarray) -> np.ndarray:
    """Discounted value of ``pi`` under ``m``'s kernel.

    Solves (I - beta K_pi) V = r_pi exactly; K_pi and r_pi are the
    policy-averaged kernel and reward.
    """
    Kpi = induced_kernel(m, pi)
    rpi = np.einsum("xa,xa->x", np.asarray(pi, dtype=float), m.rewards)
    return np.linalg.solve(np.eye(m.num_states) - m.discount * Kpi, rpi)
