"""Berk-Nash machinery: joint feasibility checking, equilibrium enumeration
over a finite conjecture set, and the entropy-regularized selection objective.

An equilibrium couples four objects: a model index k, a subjective
discounted occupation measure under that model, the true stationary
state-action frequencies of the induced policy, and the policy itself. The
checker evaluates the four condition groups of that coupled system and
reports residuals per group; the enumerator searches candidate best
responses model by model and re-verifies every hit.
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
from .planning import greedy_policies, greedy_sets, occupation_of_policy, value_iteration
from .soft_planning import SoftPlanConfig, soft_best_response

# Largest residual a condition group may carry in an accepted equilibrium.
FEAS_TOL = 1e-7

GROUP_SUBJECTIVE_FLOW = "subjective_flow"
GROUP_TRUE_FREQUENCY = "true_frequency"
GROUP_POLICY_CONSISTENCY = "policy_consistency"
GROUP_KL_MINIMALITY = "kl_minimality"
# The condition groups in the order every residual report lists them.
RESIDUAL_GROUPS = (GROUP_SUBJECTIVE_FLOW, GROUP_TRUE_FREQUENCY,
                   GROUP_POLICY_CONSISTENCY, GROUP_KL_MINIMALITY)


@dataclass(frozen=True)
class JointCandidate:
    """A (k, eta, d, pi) tuple to be tested for joint feasibility."""

    model_index: int
    occupation: np.ndarray
    frequencies: np.ndarray
    policy: np.ndarray


@dataclass(frozen=True)
class FeasibilityReport:
    passed: bool
    residuals: dict[str, float]
    failed_groups: tuple[str, ...]


@dataclass(frozen=True)
class CandidateDiagnostic:
    """One candidate best response and its verdict. ``feasibility`` holds the
    re-check that decides acceptance, run only if the candidate is KL-minimal;
    ``divergence_vector`` is None if its true chain is reducible."""

    model_index: int
    label: str
    policy_kind: str
    policy: np.ndarray
    reason: str
    divergence_vector: np.ndarray | None
    tie_states: int
    feasibility: FeasibilityReport | None = None

    @property
    def accepted(self) -> bool:
        return self.feasibility is not None and self.feasibility.passed

    @property
    def divergence(self) -> float:
        return float(self.divergence_vector[self.model_index])


@dataclass(frozen=True)
class EquilibriumReport:
    """One diagnostic row per candidate tested; the accepted ones are the equilibria.

    ``tie_states`` > 0 on a hard-mode diagnostic flags states whose greedy
    set was not a singleton: only deterministic and uniform tie-breaks are
    searched, so equilibria requiring strictly interior randomization over a
    tied set would not appear.
    """

    mode: str
    temperature: float | None
    diagnostics: tuple[CandidateDiagnostic, ...]

    @property
    def equilibria(self) -> tuple[CandidateDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.accepted)


def check_joint_feasibility(
    m: MDPInstance, cs: ConjectureSet, cand: JointCandidate
) -> FeasibilityReport:
    """Evaluate the four coupled condition groups at ``cand``.

    Failures are reported, not raised; the report carries the max residual
    of each group so a failing candidate names its broken condition. A group
    fails when its residual exceeds FEAS_TOL.
    """
    k = cand.model_index
    if not (0 <= k < len(cs)):
        raise ValueError(f"model index {k} outside conjecture set of size {len(cs)}")
    eta = np.asarray(cand.occupation, dtype=float)
    d = np.asarray(cand.frequencies, dtype=float)
    pi = np.asarray(cand.policy, dtype=float)
    S, A = m.num_states, m.num_actions
    for name, arr in (("occupation", eta), ("frequencies", d), ("policy", pi)):
        if arr.shape != (S, A):
            raise ValueError(f"{name} must have shape ({S}, {A}), got {arr.shape}")
    Qk = cs.members[k].kernel
    beta = m.discount

    residuals: dict[str, float] = {}

    # (i) subjective discounted flow under model k, eta >= 0
    inflow = m.initial_dist + beta * np.einsum("yax,ya->x", Qk, eta)
    flow_res = np.abs(eta.sum(axis=1) - inflow).max()
    neg_res = max(0.0, float(-eta.min()))
    residuals[GROUP_SUBJECTIVE_FLOW] = float(max(flow_res, neg_res))

    # (ii) true stationary state-action frequencies, d >= 0, total mass 1
    norm_res = abs(d.sum() - 1.0)
    balance = np.abs(d.sum(axis=1) - np.einsum("xay,xa->y", m.kernel, d)).max()
    neg_res = max(0.0, float(-d.min()))
    residuals[GROUP_TRUE_FREQUENCY] = float(max(norm_res, balance, neg_res))

    # (iii) one policy governs both flows (checked on positive marginals only)
    policy_res = 0.0
    for mass in (eta, d):
        marg = mass.sum(axis=1)
        on = marg > FEAS_TOL
        policy_res = max(policy_res, np.abs(pi[on] - mass[on] / marg[on, None]).max(initial=0.0))
    residuals[GROUP_POLICY_CONSISTENCY] = float(policy_res)

    # (iv) k attains the minimal frequency-weighted KL cost
    divs = divergence_vector(m, cs, d)
    residuals[GROUP_KL_MINIMALITY] = float(max(0.0, (divs[k] - divs).max()))

    failed = tuple(g for g, r in residuals.items() if r > FEAS_TOL)
    return FeasibilityReport(passed=not failed, residuals=residuals, failed_groups=failed)


def _hard_candidates(m_k: MDPInstance) -> list[tuple[str, np.ndarray, int]]:
    """Deterministic and uniform-tie best responses under one model."""
    sets = greedy_sets(m_k, value_iteration(m_k))
    tie_states = sum(1 for s in sets if s.size > 1)
    lowest, uniform = greedy_policies(sets, m_k.num_actions)
    out = [("br-lowest", lowest, tie_states)]
    if tie_states:
        out.append(("br-uniform", uniform, tie_states))
    return out


def enumerate_equilibria(
    m: MDPInstance,
    cs: ConjectureSet,
    mode: str = "hard",
    temperature: float | None = None,
) -> EquilibriumReport:
    """Search every conjecture for a self-confirming best response.

    For each model k the best response is computed (hard: deterministic
    plus, when greedy ties exist, the uniform tie-break; soft: the softmax
    best response at ``temperature``), its true long-run frequencies are
    derived, and k is accepted iff it minimizes the frequency-weighted KL
    cost over the whole set. Every accepted pair is re-verified through
    :func:`check_joint_feasibility` before being reported.
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
            candidates = _hard_candidates(m_k)
        else:
            pi, _, _ = soft_best_response(m_k, SoftPlanConfig(temperature=temperature))
            candidates = [("softmax", pi, 0)]

        for policy_kind, pi, tie_states in candidates:
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
                    cand = JointCandidate(k, occupation_of_policy(m_k, pi), d, pi)
                    feas = check_joint_feasibility(m, cs, cand)
                    reason = (
                        "equilibrium" if feas.passed else
                        f"feasibility re-check failed: {', '.join(feas.failed_groups)}"
                    )
            diagnostics.append(CandidateDiagnostic(
                model_index=k, label=member.label, policy_kind=policy_kind, policy=pi,
                reason=reason, divergence_vector=divs, tie_states=tie_states, feasibility=feas,
            ))

    return EquilibriumReport(mode=mode, temperature=temperature, diagnostics=tuple(diagnostics))


def bilevel_objective(
    m: MDPInstance, cs: ConjectureSet, k: int, temperature: float
) -> float:
    """Long-run KL cost of model k evaluated at its own softmax best response."""
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
