"""Shared generators and independent oracles used across the test modules."""

import numpy as np

from berknash import ConjectureSet, MDPInstance, SubjectiveKernel


def random_instance(rng, num_states=3, num_actions=2, discount=0.9):
    """Random dense instance; Dirichlet rows are strictly positive a.s.,
    so every induced chain is irreducible and aperiodic."""
    kernel = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    rewards = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    mu0 = rng.dirichlet(np.ones(num_states))
    return MDPInstance(
        kernel=kernel, rewards=rewards, discount=discount, initial_dist=mu0
    )


def action1_family(m, thetas):
    """Conjectures Q_theta that keep ``m``'s rows of action 0 and give action 1
    the row (1-theta)(0.5, 0.4, 0.1) + theta(0.1, 0.2, 0.7) from every state.

    On benchmark3's truth each KL cost is convex in theta and the pseudo-true
    theta depends on which states play action 1, so unlike the uniform-noise
    mixtures the fit depends on the policy's data.
    """
    low, high = np.array([0.5, 0.4, 0.1]), np.array([0.1, 0.2, 0.7])
    members = []
    for theta in thetas:
        kernel = m.kernel.copy()
        kernel[:, 1] = (1.0 - theta) * low + theta * high
        members.append(SubjectiveKernel(kernel=kernel, label=f"theta={theta:g}", param=theta))
    return ConjectureSet(members=tuple(members))


def random_policy(rng, num_states, num_actions):
    return rng.dirichlet(np.ones(num_actions), size=num_states)


def power_iteration_stationary(P, tol=1e-13, max_iters=10**6):
    """Independent oracle: iterate mu <- mu P until the update stalls."""
    n = P.shape[0]
    mu = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = mu @ P
        if np.abs(nxt - mu).sum() < tol:
            return nxt / nxt.sum()
        mu = nxt
    return mu / mu.sum()


def truncated_series_value(m, pi, terms=2000):
    """Independent oracle: partial sum of beta^t K_pi^t r_pi."""
    Kpi = np.einsum("xa,xay->xy", pi, m.kernel)
    rpi = np.einsum("xa,xa->x", pi, m.rewards)
    v = np.zeros(m.num_states)
    term = rpi.copy()
    for _ in range(terms):
        v += term
        term = m.discount * (Kpi @ term)
    return v


def enumerate_lp_vertices(c, A_ub, b_ub, maximize=True):
    """Independent oracle: best objective over all basic feasible points of
    {A_ub x <= b_ub, x >= 0} (bound rows included in the enumeration)."""
    import itertools

    n = A_ub.shape[1]
    rows = np.vstack([A_ub, -np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best = None
    for subset in itertools.combinations(range(rows.shape[0]), n):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if np.all(rows @ x <= rhs + 1e-9):
            val = float(c @ x)
            if best is None or (val > best if maximize else val < best):
                best = val
    return best
