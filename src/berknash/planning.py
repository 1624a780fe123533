"""Exact subjective planning: Bellman backups, value iteration, greedy best
responses, and the primal/dual LP characterization of the optimal value.

All functions take an :class:`~berknash.mdp.MDPInstance` whose kernel is the
kernel the planner *believes* — pass ``m.with_kernel(Q)`` to plan under a
conjecture Q instead of the true dynamics.
"""

from __future__ import annotations

import numpy as np

from .mdp import MDPInstance, induced_kernel, uniform_policy
from .simplex import LinearProgram

# Sup-norm accuracy of the optimal value.
VI_TOL = 1e-10
# Actions whose backup is this close to the best count as greedy.
ACT_TOL = 1e-8
# Step cap of the Newton loop shared by the hard and soft planners.
MAX_STEPS = 100


class PlanConvergenceError(RuntimeError):
    """A planner's Newton loop hit MAX_STEPS before certifying its tolerance."""


def backup_values(m: MDPInstance, v: np.ndarray) -> np.ndarray:
    """One-step lookahead table q(x,a) = r(x,a) + beta sum_y Q(y|x,a) v(y)."""
    return m.rewards + m.discount * (m.kernel @ np.asarray(v, dtype=float))


def bellman_operator(m: MDPInstance, v: np.ndarray) -> np.ndarray:
    """Hard optimality backup (Tv)(x) = max_a q(x,a)."""
    return backup_values(m, v).max(axis=1)


def _newton(step, policy, m: MDPInstance, tol: float) -> np.ndarray:
    """Policy iteration from v=0 on the beta-contraction ``step``, to within
    ``tol`` of its fixed point in sup norm.

    ``policy(v)`` attains ``step(v)``, so v + (I - beta K_pi)^-1 (Tv - v) is
    the exact value of pi and, as beta K_pi is the derivative of ``step``, a
    Newton step. ||Tv - v|| <= tol*(1-beta)/(2*beta) certifies Tv through the
    contraction modulus.
    """
    beta = m.discount
    threshold = tol * (1.0 - beta) / (2.0 * beta)
    v, gap = np.zeros(m.num_states), np.inf
    for _ in range(MAX_STEPS):
        tv = step(v)
        prev, gap = gap, np.abs(tv - v).max()
        # Float floor: Tv carries about an ulp of rounding, so near beta=1 the
        # threshold can sit below every gap float64 resolves. A gap of 4 ulp
        # then certifies an error of about beta*4*ulp/(1-beta), but only as the
        # second in a row: after a full solve, v can be ~4 ulp/(1-beta) off
        # behind such a gap; a step taken from one refines v to the rounding
        # of Tv.
        if gap <= threshold or max(gap, prev) <= 4.0 * np.spacing(np.abs(tv).max()):
            return tv
        v = v + np.linalg.solve(np.eye(m.num_states) - beta * induced_kernel(m, policy(v)), tv - v)
    raise PlanConvergenceError(
        f"policy iteration did not certify tol={tol:g} within MAX_STEPS={MAX_STEPS} steps"
    )


def value_iteration(m: MDPInstance) -> np.ndarray:
    """Optimal value to within VI_TOL in sup norm, by Howard policy iteration
    over first exact argmaxes: they attain Tv; near ties within ACT_TOL need not."""
    return _newton(lambda v: bellman_operator(m, v),
                   lambda v: np.eye(m.num_actions)[backup_values(m, v).argmax(axis=1)], m, VI_TOL)


def greedy_sets(m: MDPInstance, v: np.ndarray) -> list[np.ndarray]:
    """Per-state actions whose backup is within ACT_TOL of the best."""
    q = backup_values(m, v)
    best = q.max(axis=1, keepdims=True)
    return [np.flatnonzero(q[x] >= best[x] - ACT_TOL) for x in range(m.num_states)]


def best_response_policy(m: MDPInstance) -> np.ndarray:
    """Subjectively optimal deterministic policy under ``m``'s kernel, taking
    the smallest greedy action index in each state."""
    return np.eye(m.num_actions)[[acts[0] for acts in greedy_sets(m, value_iteration(m))]]


def _flow_rows(m: MDPInstance) -> np.ndarray:
    """The (S*A, S) matrix with row x*A+a equal to e_x - beta Q(.|x,a)."""
    S, A = m.num_states, m.num_actions
    rows = -m.discount * m.kernel.reshape(S * A, S)
    rows[np.arange(S * A), np.repeat(np.arange(S), A)] += 1.0
    return rows


def build_primal_lp(m: MDPInstance) -> LinearProgram:
    """Value-form LP: minimize sum_x v(x) subject to v majorizing every backup.

    Variables are the S state values (free); one ">=" row per (x,a):
    v(x) - beta sum_y Q(y|x,a) v(y) >= r(x,a). Rows are ordered x-major.
    """
    S, A = m.num_states, m.num_actions
    return LinearProgram(
        objective=np.ones(S),
        constraints=_flow_rows(m),
        rhs=m.rewards.reshape(S * A),
        senses=(">=",) * (S * A),
        lower_bounds=np.full(S, -np.inf),
        maximize=False,
    )


def build_dual_lp(m: MDPInstance) -> LinearProgram:
    """Occupation-measure LP: maximize sum r(x,a) eta(x,a) under the
    discounted flow-balance rows, one per state.

    Variables eta(x,a) >= 0 are ordered x-major; row x reads
    sum_a eta(x,a) - beta sum_{x',a'} Q(x|x',a') eta(x',a') = mu0(x),
    so the constraint matrix is the transpose of the primal's.
    """
    S, A = m.num_states, m.num_actions
    n = S * A
    return LinearProgram(
        objective=m.rewards.reshape(n),
        constraints=np.ascontiguousarray(_flow_rows(m).T),
        rhs=m.initial_dist.copy(),
        senses=("=",) * S,
        lower_bounds=np.zeros(n),
        maximize=True,
    )


def policy_from_occupation(eta: np.ndarray) -> np.ndarray:
    """Policy induced by a state-action measure via row normalization.

    Serves discounted occupation measures and stationary frequencies alike.
    States with zero marginal mass are never visited, so they take the
    uniform row.
    """
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < -1e-12):
        x, a = np.argwhere(eta < -1e-12)[0]
        raise ValueError(f"occupation measure negative at (x={x}, a={a}): {eta[x, a]:.3g}")
    eta = np.maximum(eta, 0.0)
    marginal = eta.sum(axis=1)
    pi = uniform_policy(*eta.shape)
    pos = marginal > 0.0
    pi[pos] = eta[pos] / marginal[pos, None]
    return pi


def occupation_of_policy(m: MDPInstance, pi: np.ndarray) -> np.ndarray:
    """Discounted occupation measure of ``pi`` under ``m``'s kernel.

    Solves the state flow balance h = mu0 + beta Q_pi^T h and splits each
    state's mass across actions by the policy; the result is feasible for
    the dual LP by construction.
    """
    Qpi = induced_kernel(m, pi)
    h = np.linalg.solve(np.eye(m.num_states) - m.discount * Qpi.T, m.initial_dist)
    return np.asarray(pi, dtype=float) * h[:, None]
