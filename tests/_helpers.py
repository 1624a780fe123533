"""Shared generators and independent oracles used across the test modules."""

import numpy as np

from berknash import (
    ConjectureSet,
    MDPInstance,
    SoftPlanConfig,
    SubjectiveKernel,
    soft_best_response,
    state_action_frequencies,
)

# action 1's conjectured row is (1 - theta) * ACTION1_LOW + theta * ACTION1_HIGH
ACTION1_LOW, ACTION1_HIGH = np.array([0.5, 0.4, 0.1]), np.array([0.1, 0.2, 0.7])


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
    members = []
    for theta in thetas:
        kernel = m.kernel.copy()
        kernel[:, 1] = (1.0 - theta) * ACTION1_LOW + theta * ACTION1_HIGH
        members.append(SubjectiveKernel(kernel=kernel, label=f"theta={theta:g}", param=theta))
    return ConjectureSet(members=tuple(members))


def bisect_root(f, lo, hi, iters=40):
    """A sign change of ``f`` on [lo, hi], given f(lo) < 0 <= f(hi), by bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def action1_pseudo_true(m, d):
    """The theta in [0, 1] of :func:`action1_family` that minimizes the long-run
    KL cost under state-action frequencies ``d``.

    Action 0's rows are exact, so the cost is, up to a constant,
    -sum_y w_y log q_y(theta) with w = d[:, 1] @ P[:, 1]: convex in theta,
    so its argmin is where the slope changes sign.
    """
    w = d[:, 1] @ m.kernel[:, 1]

    def slope(theta):
        return -float(w @ ((ACTION1_HIGH - ACTION1_LOW)
                           / ((1.0 - theta) * ACTION1_LOW + theta * ACTION1_HIGH)))

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(1.0) <= 0.0:
        return 1.0
    return bisect_root(slope, 0.0, 1.0, iters=60)


def action1_fixed_points(m, temperature, points=21):
    """Exact reference for the soft equilibria of the continuous :func:`action1_family`.

    g(theta) is the pseudo-true theta of the true frequencies that the
    softmax best response to Q_theta generates; a soft equilibrium is a root
    of theta - g(theta). Scans ``points`` evenly spaced thetas on [0, 1] and
    bisects each sign change; returns the roots found.
    """
    def gap(theta):
        q = action1_family(m, [theta]).members[0]
        pi, _, _ = soft_best_response(m.with_kernel(q.kernel), SoftPlanConfig(temperature))
        return theta - action1_pseudo_true(m, state_action_frequencies(m, pi))

    grid = np.linspace(0.0, 1.0, points).tolist()
    h = [gap(theta) for theta in grid]
    roots = []
    for lo, hi, h_lo, h_hi in zip(grid, grid[1:], h, h[1:]):
        if (h_lo < 0.0) != (h_hi < 0.0):
            sign = 1.0 if h_lo < 0.0 else -1.0
            roots.append(bisect_root(lambda t: sign * gap(t), lo, hi, iters=30))
    return roots


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
