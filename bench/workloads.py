"""Seeded workload definitions: which pipelines run, with which configs.

A workload is a list of pipelines that one pass runs in order. Every config
is generated from the benchmark seed alone; the program only sees the JSON
configs. Each pipeline also carries the expectations its output checks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Per-arm pull counts of the default case study at seed 11, frozen by the
# package's acceptance suite.
FROZEN_CASE_STUDY_COUNTS = (1470, 17, 8, 5)
FROZEN_SEED = 11

# Three instances with three conjectures each, rather than one instance with
# eight: simplex pivot counts vary by about 12% (quartile spread over seeds)
# between random instances, and summing three per pass cuts that spread to
# about 8% for about the same number of LPs.
WIDE_STATES = 30
WIDE_ACTIONS = 4
WIDE_INSTANCES = 3
WIDE_EPSILONS = 3
ROLLOUT_ROUNDS = 40
ROLLOUT_LOSS_SCALE = 0.5

WORKLOADS = ("bench3-oracle", "bench3-rollout", "wide-exact")


@dataclass(frozen=True)
class Pipeline:
    """One `berknash run` config plus what its outputs must satisfy."""

    config: dict
    expect: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.config["experiment"]


def wide_instance(rng: np.random.Generator, num_states: int, num_actions: int) -> dict:
    """Inline MDP with positive Dirichlet kernel rows and U(-1, 1) rewards."""
    kernel = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    kernel = np.maximum(kernel, 1e-6)
    kernel /= kernel.sum(axis=2, keepdims=True)
    rewards = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
    return {
        "kernel": kernel.tolist(),
        "rewards": rewards.tolist(),
        "discount": 0.95,
        "initial_dist": np.full(num_states, 1.0 / num_states).tolist(),
    }


def _bench3_oracle(seed: int, tiny: bool) -> list[Pipeline]:
    case = {"experiment": "case-study", "seed": seed}
    sweep = {"experiment": "lambda-sweep", "seed": seed}
    zoom = {"experiment": "zooming", "seed": seed}
    case_expect = {"top_param": 0.05}
    if seed == FROZEN_SEED:
        case_expect["counts"] = FROZEN_CASE_STUDY_COUNTS
    if tiny:
        case["bandit"] = {"horizon": 50}
        sweep["lambda_grid"] = {"points": 3}
        zoom["bandit"] = {"horizon": 60}
        zoom["zoom"] = {"zoom_interval": 20}
        case_expect = {}
    return [
        Pipeline(case, case_expect),
        Pipeline(sweep),
        Pipeline(zoom),
        Pipeline({"experiment": "equilibrium-report", "seed": seed},
                 {"only_equilibrium": 0}),
        Pipeline({"experiment": "duality-audit", "seed": seed}),
    ]


def _bench3_rollout(seed: int, tiny: bool) -> list[Pipeline]:
    bandit = {
        "loss_estimator": "rollout",
        "loss_scale": ROLLOUT_LOSS_SCALE,
        "horizon": 3 if tiny else ROLLOUT_ROUNDS,
        "learning_rate": 0.1,
        "exploration": 0.1,
    }
    if tiny:
        bandit["rollout_horizon"] = 1000
    return [Pipeline({"experiment": "case-study", "seed": seed, "bandit": bandit})]


def _wide_exact(seed: int, tiny: bool) -> list[Pipeline]:
    S, n = (6, 2) if tiny else (WIDE_STATES, WIDE_INSTANCES)
    rng = np.random.default_rng(seed)
    pipelines = []
    for _ in range(n):
        shared = {
            "seed": seed,
            "mdp": wide_instance(rng, S, WIDE_ACTIONS),
            "conjectures": {"epsilons": np.linspace(0.05, 0.45, WIDE_EPSILONS).tolist()},
        }
        pipelines += [
            Pipeline({"experiment": "equilibrium-report", **shared,
                      "equilibrium": {"mode": "both"}}),
            Pipeline({"experiment": "duality-audit", **shared}),
        ]
    return pipelines


def build(workload: str, seed: int, tiny: bool = False) -> list[Pipeline]:
    """Pipelines of one pass of ``workload``; ``tiny`` shrinks them for self-tests."""
    builders = {
        "bench3-oracle": _bench3_oracle,
        "bench3-rollout": _bench3_rollout,
        "wide-exact": _wide_exact,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](seed, tiny)
