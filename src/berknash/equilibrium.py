"""Berk-Nash machinery: joint feasibility checking, equilibrium enumeration
over a finite conjecture set, and the entropy-regularized selection objective.

An equilibrium is a pair (k, pi): pi is optimal for model k, and k is
KL-minimal under the true frequencies of pi. The checker takes only that
pair and derives the rest itself, reporting one residual per condition
group; the enumerator finds one best response per model and re-checks
every hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import (
    MDPInstance,
    ReducibleChainError,
    state_action_frequencies,
)
from .models import TIE_TOL, ConjectureSet, divergence_vector, kl_cost_table, long_run_divergence
from .planning import greedy_sets, occupation_of_policy, policy_from_occupation, value_iteration
from .simplex import LinearProgram, simplex_solve
from .soft_planning import SoftPlanConfig, soft_best_response

# Largest residual a condition group may carry in an accepted equilibrium.
FEAS_TOL = 1e-7

GROUP_SUBJECTIVE_FLOW = "subjective_flow"
GROUP_TRUE_FREQUENCY = "true_frequency"
GROUP_OPTIMALITY = "optimality"
GROUP_KL_MINIMALITY = "kl_minimality"
# The condition groups in the order every residual report lists them.
RESIDUAL_GROUPS = (GROUP_SUBJECTIVE_FLOW, GROUP_TRUE_FREQUENCY,
                   GROUP_OPTIMALITY, GROUP_KL_MINIMALITY)


@dataclass(frozen=True)
class FeasibilityReport:
    passed: bool
    residuals: dict[str, float]
    failed_groups: tuple[str, ...]


@dataclass(frozen=True)
class CandidateDiagnostic:
    """One model's best response and its verdict. ``feasibility`` holds the
    re-check that decides acceptance, run only if the candidate is KL-minimal;
    ``divergence_vector`` is None if its true chain is reducible."""

    model_index: int
    label: str
    policy: np.ndarray
    reason: str
    divergence_vector: np.ndarray | None
    feasibility: FeasibilityReport | None = None

    @property
    def accepted(self) -> bool:
        return self.feasibility is not None and self.feasibility.passed

    @property
    def divergence(self) -> float:
        return float(self.divergence_vector[self.model_index])

    @property
    def kl_margin(self) -> float | None:
        """min over j != k of D_j - D_k at the candidate's own frequencies:
        inf with one model, None if the true chain is reducible."""
        if self.divergence_vector is not None:
            gaps = np.delete(self.divergence_vector - self.divergence, self.model_index)
            return float(gaps.min(initial=np.inf))


@dataclass(frozen=True)
class EquilibriumReport:
    """One diagnostic per model; the accepted ones are the equilibria."""

    mode: str
    temperature: float | None
    diagnostics: tuple[CandidateDiagnostic, ...]

    @property
    def equilibria(self) -> tuple[CandidateDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.accepted)


def check_joint_feasibility(
    m: MDPInstance, cs: ConjectureSet, k: int, pi: np.ndarray,
    temperature: float | None = None,
) -> FeasibilityReport:
    """Re-check the pair (k, pi), in hard mode if ``temperature`` is None.

    All it tests is derived from k and pi: eta, pi's discounted occupation
    under model k; d, pi's true frequencies; model k's value v; the cost
    tables. The groups are (i) eta's flow balance and sign, (ii) d's
    balance, mass and sign, (iii) pi's optimality for model k and (iv) k's
    KL minimality at d. Failures are reported, not raised: a group fails
    when its max residual exceeds FEAS_TOL. A reducible true chain raises
    ReducibleChainError.
    """
    if not (0 <= k < len(cs)):
        raise ValueError(f"model index {k} outside conjecture set of size {len(cs)}")
    m_k = m.with_kernel(cs.members[k].kernel)
    pi = np.asarray(pi, dtype=float)
    eta = occupation_of_policy(m_k, pi)
    d = state_action_frequencies(m, pi)

    residuals: dict[str, float] = {}

    # (i) subjective discounted flow under model k, eta >= 0
    inflow = m.initial_dist + m.discount * np.einsum("yax,ya->x", m_k.kernel, eta)
    flow_res = np.abs(eta.sum(axis=1) - inflow).max()
    neg_res = max(0.0, float(-eta.min()))
    residuals[GROUP_SUBJECTIVE_FLOW] = float(max(flow_res, neg_res))

    # (ii) true stationary state-action frequencies, d >= 0, total mass 1
    norm_res = abs(d.sum() - 1.0)
    balance = np.abs(d.sum(axis=1) - np.einsum("xay,xa->y", m.kernel, d)).max()
    neg_res = max(0.0, float(-d.min()))
    residuals[GROUP_TRUE_FREQUENCY] = float(max(norm_res, balance, neg_res))

    # (iii) the LP duality gap per unit of discounted mass: (1-beta)|mu0.v -
    # r.eta| (hard), with the bonus lambda sum eta log(1/pi) added to r.eta
    # and the gap over max(1, lambda) (soft; log 0 read as 0)
    if temperature is None:
        v, bonus, scale = value_iteration(m_k), 0.0, 1.0
    else:
        _, v, _ = soft_best_response(m_k, SoftPlanConfig(temperature=temperature))
        log_pi = np.log(pi, out=np.zeros_like(pi), where=pi > 0.0)
        bonus, scale = -temperature * float((eta * log_pi).sum()), max(1.0, temperature)
    gap = m.initial_dist @ v - float((m.rewards * eta).sum()) - bonus
    residuals[GROUP_OPTIMALITY] = float((1.0 - m.discount) * abs(gap) / scale)

    # (iv) k attains the minimal frequency-weighted KL cost
    divs = divergence_vector(m, cs, d)
    residuals[GROUP_KL_MINIMALITY] = float(max(0.0, (divs[k] - divs).max()))

    failed = tuple(g for g, r in residuals.items() if r > FEAS_TOL)
    return FeasibilityReport(passed=not failed, residuals=residuals, failed_groups=failed)


def _max_margin_policy(m: MDPInstance, m_k: MDPInstance, costs: list[np.ndarray],
                       k: int) -> np.ndarray:
    """Greedy policy of model k whose true frequencies favour k most: the row
    normalization of the d* that maximizes t over d(x,a) >= 0 on k's greedy
    pairs and a free t, subject to sum d = 1, true flow balance at every
    state and d.(c_k - c_j) + t <= 0 for each j != k (t <= 0 with one
    model). If d*'s true chain is reducible (a vertex may leave states
    without mass), d* is mixed with the true frequencies d_u of the uniform
    greedy policy, giving up at most FEAS_TOL / 2 of margin; if d_u's chain
    is reducible too, so is every greedy policy's, and the uniform one is
    returned."""
    S = m.num_states
    sets = greedy_sets(m_k, value_iteration(m_k))
    sizes = [s.size for s in sets]
    xs, acts = np.repeat(np.arange(S), sizes), np.concatenate(sets)
    others = [j for j in range(len(costs)) if j != k] or [k]
    margin_rows = np.array([(costs[k] - costs[j])[xs, acts] for j in others])
    rows = np.vstack([np.ones(xs.size), (xs == np.arange(S)[:, None]) - m.kernel[xs, acts].T,
                      margin_rows])
    t_col = np.repeat([0.0, 1.0], [1 + S, len(others)])  # t enters the margin rows only
    lp = LinearProgram(objective=np.append(np.zeros(xs.size), 1.0),
                       constraints=np.column_stack([rows, t_col]),
                       rhs=np.append(1.0, np.zeros(len(rows) - 1)),
                       senses=("=",) * (1 + S) + ("<=",) * len(others),
                       lower_bounds=np.append(np.zeros(xs.size), -np.inf), maximize=True)
    sol = simplex_solve(lp)
    d = np.zeros((S, m.num_actions))
    d[xs, acts] = sol.x[:-1]
    pi = policy_from_occupation(d)
    try:
        state_action_frequencies(m, pi)
    except ReducibleChainError:
        uniform = np.zeros((S, m.num_actions))
        uniform[xs, acts] = 1.0 / np.repeat(sizes, sizes)
        try:
            d_u = state_action_frequencies(m, uniform)
        except ReducibleChainError:
            return uniform
        gap = sol.x[-1] + (margin_rows @ d_u[xs, acts]).max()  # t* minus d_u's margin
        eps = 0.5 * FEAS_TOL / max(gap, 0.5 * FEAS_TOL)
        pi = policy_from_occupation((1.0 - eps) * d + eps * d_u)
    return pi


def enumerate_equilibria(
    m: MDPInstance,
    cs: ConjectureSet,
    mode: str = "hard",
    temperature: float | None = None,
) -> EquilibriumReport:
    """Search every conjecture for a self-confirming best response.

    For each model k one best response is computed (hard: the greedy policy
    whose true frequencies give k the largest KL margin, by one LP; soft: the
    softmax best response at ``temperature``), its true long-run frequencies
    are derived, and k is accepted iff it minimizes the frequency-weighted KL
    cost over the whole set. Every accepted pair is re-verified through
    :func:`check_joint_feasibility` before being reported. So hard mode
    accepts k iff some mixture over k's greedy actions with an irreducible
    true chain makes k KL-minimal (to within FEAS_TOL), and reports one such
    d, the max-margin one, or within FEAS_TOL / 2 of it where the LP's
    vertex has a reducible chain. Beliefs are point beliefs: a policy
    optimal only under a mixture of models is not searched.
    """
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
    if mode == "soft" and temperature is None:
        raise ValueError("soft mode requires a temperature")

    costs = [kl_cost_table(m, q) for q in cs]
    diagnostics: list[CandidateDiagnostic] = []

    for k, member in enumerate(cs):
        m_k = m.with_kernel(member.kernel)
        if mode == "hard":
            pi = _max_margin_policy(m, m_k, costs, k)
        else:
            pi, _, _ = soft_best_response(m_k, SoftPlanConfig(temperature=temperature))
        divs = feas = None
        try:
            d = state_action_frequencies(m, pi)
        except ReducibleChainError as err:
            reason = f"skipped: {err}"
        else:
            divs = np.array([long_run_divergence(d, c) for c in costs])
            if divs[k] > divs.min() + FEAS_TOL:
                reason = f"not KL-minimal: D_k={divs[k]:.6g} vs min {divs.min():.6g}"
            else:
                feas = check_joint_feasibility(m, cs, k, pi, temperature if mode == "soft" else None)
                reason = (
                    "equilibrium" if feas.passed else
                    f"feasibility re-check failed: {', '.join(feas.failed_groups)}"
                )
        diagnostics.append(CandidateDiagnostic(
            model_index=k, label=member.label, policy=pi, reason=reason,
            divergence_vector=divs, feasibility=feas,
        ))

    return EquilibriumReport(mode=mode, temperature=temperature, diagnostics=tuple(diagnostics))


def bilevel_objective(
    m: MDPInstance, cs: ConjectureSet, k: int, temperature: float
) -> float:
    """Long-run KL cost of model k evaluated at its own softmax best response.

    This is what the learners of :mod:`berknash.learning` minimize (their
    oracle loss, up to scale). An equilibrium asks instead that k minimize
    the cost over the set with the data of k's own policy held fixed, so at
    a positive temperature the minimizer of this objective need not be one.
    Example: benchmark3's truth with action 1 conjectured as the row
    (1-p)(0.5, 0.4, 0.1) + p(0.1, 0.2, 0.7) from every state, p in [0, 1]:
    at temperature 0.1 this objective is least at p = 0.0626 and the soft
    equilibrium is p = 0.4452; at temperature 0.01 both are at 0.1639.
    """
    member = cs.members[k]
    pi, _, _ = soft_best_response(
        m.with_kernel(member.kernel), SoftPlanConfig(temperature=temperature)
    )
    d = state_action_frequencies(m, pi)
    return long_run_divergence(d, kl_cost_table(m, member))


def entropy_bn_select(
    m: MDPInstance, cs: ConjectureSet, temperature: float
) -> tuple[int, np.ndarray]:
    """Minimize the smooth selection objective over the conjecture set.

    Returns the lowest index within TIE_TOL of the minimum together with
    the full objective vector.
    """
    values = np.array(
        [bilevel_objective(m, cs, k, temperature) for k in range(len(cs))]
    )
    best = int(np.flatnonzero(values <= values.min() + TIE_TOL)[0])
    return best, values
