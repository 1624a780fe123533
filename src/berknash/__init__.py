"""Berk-Nash equilibria in misspecified finite MDPs: exact and
entropy-regularized subjective planning, KL-based consistency checking,
equilibrium enumeration, and online model selection with adaptive zooming.
"""

__version__ = "0.1.0"

from .mdp import (
    MDPInstance,
    ReducibleChainError,
    induced_kernel,
    policy_value,
    state_action_frequencies,
    stationary_distribution,
    uniform_policy,
    validate_instance,
)
from .models import (
    ConjectureSet,
    SubjectiveKernel,
    divergence_vector,
    kl_cost_table,
    kl_divergence,
    long_run_divergence,
    mixture_family,
    mixture_kernel,
    pseudo_true_set,
)
from .simplex import (
    InfeasibleLPError,
    LinearProgram,
    SimplexSolution,
    UnboundedLPError,
    simplex_solve,
)
from .planning import (
    PlanConvergenceError,
    backup_values,
    bellman_operator,
    best_response_policy,
    build_dual_lp,
    build_primal_lp,
    greedy_sets,
    occupation_of_policy,
    policy_from_occupation,
    value_iteration,
)
from .soft_planning import (
    SoftPlanConfig,
    soft_bellman_operator,
    soft_best_response,
    soft_value_iteration,
    softmax_policy,
)
from .equilibrium import (
    EquilibriumReport,
    FeasibilityReport,
    bilevel_objective,
    check_joint_feasibility,
    entropy_bn_select,
    enumerate_equilibria,
)
from .learning import (
    BanditConfig,
    Exp3RunRecord,
    ZoomConfig,
    ZoomRunRecord,
    exp3_update,
    oracle_loss,
    rollout_loss,
    run_exp3,
    run_zoom_exp3,
    sampling_distribution,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunArtifacts,
    benchmark3,
    config_from_dict,
    load_config,
    run_experiment,
)
