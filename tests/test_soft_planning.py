import math

import numpy as np
import pytest

from berknash import (
    MDPInstance,
    PlanConvergenceError,
    SoftPlanConfig,
    backup_values,
    bellman_operator,
    benchmark3,
    best_response_policy,
    policy_value,
    soft_best_response,
    soft_bellman_operator,
    soft_value_iteration,
    softmax_policy,
    value_iteration,
)
from berknash import planning
from _helpers import random_instance


def scalar_instance(num_actions=1, reward=1.0, discount=0.5):
    return MDPInstance(
        kernel=np.ones((1, num_actions, 1)),
        rewards=np.full((1, num_actions), reward),
        discount=discount,
        initial_dist=[1.0],
    )


class TestSoftBellmanOperator:
    def test_single_action_reduces_to_affine_backup(self):
        rng = np.random.default_rng(0)
        m = random_instance(rng, num_states=3, num_actions=1)
        v = rng.normal(size=3)
        np.testing.assert_allclose(
            soft_bellman_operator(m, 0.7, v), bellman_operator(m, v), atol=1e-12
        )

    def test_equal_backups_add_temperature_log_count(self):
        m = scalar_instance(num_actions=2, reward=0.3, discount=0.5)
        v = np.array([1.0])
        lam = 0.2
        backup = 0.3 + 0.5 * 1.0
        assert soft_bellman_operator(m, lam, v)[0] == pytest.approx(
            backup + lam * math.log(2), abs=1e-12
        )
        # backups (b, b, b - 1): the tie stays exact next to a lower action
        m3 = MDPInstance(np.ones((1, 3, 1)), [[0.3, 0.3, -0.7]], 0.5, [1.0])
        assert soft_bellman_operator(m3, lam, v)[0] == pytest.approx(
            backup + lam * math.log(2 + math.exp(-1 / lam)), abs=1e-12
        )

    def test_small_temperature_sandwich(self):
        rng = np.random.default_rng(1)
        m = random_instance(rng, num_states=3, num_actions=2)
        v = rng.normal(size=3)
        lam = 1e-6
        hard = bellman_operator(m, v)
        soft = soft_bellman_operator(m, lam, v)
        assert np.all(soft >= hard - 1e-12)
        assert np.all(soft <= hard + lam * math.log(2) + 1e-9)

    def test_contraction_modulus(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
            v1 = rng.normal(scale=4.0, size=3)
            v2 = rng.normal(scale=4.0, size=3)
            lam = float(rng.uniform(0.01, 2.0))
            gap = np.abs(
                soft_bellman_operator(m, lam, v1) - soft_bellman_operator(m, lam, v2)
            ).max()
            assert gap <= 0.9 * np.abs(v1 - v2).max() + 1e-12


class TestSoftValueIteration:
    def test_singleton_entropy_vanishes(self):
        v, q = soft_value_iteration(
            scalar_instance(), SoftPlanConfig(temperature=0.3)
        )
        assert v[0] == pytest.approx(2.0, abs=1e-9)
        assert q[0, 0] == pytest.approx(1.0 + 0.5 * v[0], abs=1e-9)

    def test_two_action_constant_logsumexp_fixed_point(self):
        m = scalar_instance(num_actions=2, reward=0.0, discount=0.5)
        lam = 0.4
        v, _ = soft_value_iteration(m, SoftPlanConfig(temperature=lam))
        assert v[0] == pytest.approx(2 * lam * math.log(2), abs=1e-9)

    def test_matches_long_iteration_oracle(self):
        rng = np.random.default_rng(3)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
        cfg = SoftPlanConfig(temperature=0.1)
        v, _ = soft_value_iteration(m, cfg)
        oracle = np.zeros(3)
        for _ in range(10**5):
            oracle = soft_bellman_operator(m, 0.1, oracle)
        np.testing.assert_allclose(v, oracle, atol=1e-9)

    def test_value_sandwich_against_hard_planner(self):
        rng = np.random.default_rng(4)
        for lam in (1e-3, 0.1):
            m = random_instance(rng, num_states=3, num_actions=3, discount=0.9)
            v_soft, _ = soft_value_iteration(m, SoftPlanConfig(temperature=lam))
            v_hard = value_iteration(m)
            gap = np.abs(v_soft - v_hard).max()
            assert gap <= lam * math.log(3) / (1 - 0.9) + 1e-9
            assert np.all(v_soft >= v_hard - 1e-9)

    @pytest.mark.parametrize("plan", [
        value_iteration,
        lambda m: soft_value_iteration(m, SoftPlanConfig(temperature=0.1)),
    ], ids=["hard", "soft"])
    def test_iteration_cap_raises(self, monkeypatch, plan):
        monkeypatch.setattr(planning, "MAX_SWEEPS", 3)
        rng = np.random.default_rng(5)
        m = random_instance(rng, discount=0.95)
        with pytest.raises(PlanConvergenceError, match="3 sweeps"):
            plan(m)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            SoftPlanConfig(temperature=0.0)


class TestSoftmaxPolicy:
    def test_equal_row_is_uniform(self):
        pi = softmax_policy(np.array([[1.0, 1.0, 1.0]]), 0.5)
        np.testing.assert_allclose(pi, np.full((1, 3), 1 / 3), atol=1e-15)

    def test_closed_form_nine_to_one(self):
        lam = 0.3
        pi = softmax_policy(np.array([[lam * math.log(9.0), 0.0]]), lam)
        np.testing.assert_allclose(pi[0], [0.9, 0.1], atol=1e-12)

    def test_rows_normalized_and_positive(self):
        rng = np.random.default_rng(6)
        q = rng.normal(scale=3.0, size=(5, 4))
        pi = softmax_policy(q, 0.1)
        np.testing.assert_allclose(pi.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(pi > 0.0)

    def test_low_temperature_matches_hard_greedy(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10:
            m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
            v = value_iteration(m)
            q = backup_values(m, v)
            if np.min(np.abs(q[:, 0] - q[:, 1])) < 1e-3:
                continue  # needs a clearly unique argmax per state
            pi_soft, _, _ = soft_best_response(m, SoftPlanConfig(temperature=1e-5))
            pi_hard = best_response_policy(m)
            tv = 0.5 * np.abs(pi_soft - pi_hard).sum(axis=1)
            assert tv.max() <= 1e-3
            checked += 1


class TestSoftBestResponse:
    def test_high_temperature_approaches_uniform(self):
        m, cs = benchmark3()
        cfg = SoftPlanConfig(temperature=1e4)
        pi, _, _ = soft_best_response(m.with_kernel(cs.members[0].kernel), cfg)
        assert np.abs(pi - 0.5).max() <= 1e-3

    def test_temperature_sweep_transition_shape(self):
        # Fig.-3 style: at the reference state the best action's probability
        # climbs from near-uniform to 1 as the temperature drops, and the
        # climb is monotone through the sharp-transition decades.
        m, cs = benchmark3()
        mk = m.with_kernel(cs.members[0].kernel)
        lams = np.logspace(-4, 0, 17)
        max_probs = []
        for lam in lams:
            pi, _, _ = soft_best_response(mk, SoftPlanConfig(temperature=float(lam)))
            max_probs.append(pi[0].max())
        max_probs = np.array(max_probs)
        low = max_probs[lams <= 0.1 + 1e-12]
        assert np.all(np.diff(low) <= 1e-9)  # non-increasing in temperature
        assert max_probs[0] >= 1.0 - 1e-6
        assert max_probs[lams <= 1e-3][-1] >= 0.999
        assert max_probs[-1] <= 0.75

    def test_reward_only_value_non_increasing_in_temperature(self):
        m, cs = benchmark3()
        mk = m.with_kernel(cs.members[0].kernel)
        values = []
        for lam in np.logspace(-3, 3, 13):
            pi, _, _ = soft_best_response(mk, SoftPlanConfig(temperature=float(lam)))
            values.append(policy_value(mk, pi))
        values = np.array(values)
        assert np.all(np.diff(values, axis=0) <= 1e-9)

    def test_continuity_in_mixture_parameter(self):
        from berknash import mixture_kernel

        m, _ = benchmark3()
        cfg = SoftPlanConfig(temperature=0.1)
        pi1, _, _ = soft_best_response(m.with_kernel(mixture_kernel(m, 0.05).kernel), cfg)
        pi2, _, _ = soft_best_response(
            m.with_kernel(mixture_kernel(m, 0.05 + 1e-6).kernel), cfg
        )
        tv = 0.5 * np.abs(pi1 - pi2).sum(axis=1)
        assert tv.max() <= 1e-3

    def test_q_table_consistent_with_value(self):
        rng = np.random.default_rng(8)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
        pi, v, q = soft_best_response(m, SoftPlanConfig(temperature=0.2))
        np.testing.assert_allclose(q, backup_values(m, v), atol=1e-12)
        np.testing.assert_allclose(pi, softmax_policy(q, 0.2), atol=1e-15)
