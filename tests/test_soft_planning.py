import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from berknash import planning, soft_planning
from berknash.harness import LambdaGridConfig
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
        # iterate to a bitwise fixed point of the float64 backup, capped at 1e5
        oracle = np.zeros(3)
        for _ in range(10**5):
            nxt = soft_bellman_operator(m, 0.1, oracle)
            if np.array_equal(nxt, oracle):
                break
            oracle = nxt
        assert np.array_equal(soft_bellman_operator(m, 0.1, oracle), oracle)
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
        monkeypatch.setattr(planning, "MAX_STEPS", 1)
        rng = np.random.default_rng(5)
        m = random_instance(rng, discount=0.95)
        with pytest.raises(PlanConvergenceError, match="MAX_STEPS=1 steps"):
            plan(m)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            SoftPlanConfig(temperature=0.0)

    def test_benchmark3_solves_certify_in_few_backups(self, monkeypatch):
        # Counted through the module globals each step looks the operators up
        # in, which is also where the benchmark's tracer counts them.
        backups = []
        for module, name in ((soft_planning, "soft_bellman_operator"),
                             (planning, "bellman_operator")):
            def counted(*args, original=getattr(module, name)):
                backups[-1] += 1
                return original(*args)
            monkeypatch.setattr(module, name, counted)
        m, cs = benchmark3()
        for member in cs.members:
            mk = m.with_kernel(member.kernel)
            for lam in LambdaGridConfig().values():
                backups.append(0)
                soft_best_response(mk, SoftPlanConfig(temperature=float(lam)))
            backups.append(0)
            value_iteration(mk)
        assert len(backups) == 4 * (33 + 1)
        assert 1 <= min(backups) and max(backups) <= 8


def long_double_oracle(m, temperature, start, target):
    """Soft (or, for temperature None, hard) value iteration in np.longdouble
    from ``start`` until its own a-posteriori bound beta/(1-beta)*||Tv - v||
    is at most ``target``; returns the iterate and that bound."""
    L = np.longdouble
    kernel, rewards, beta = m.kernel.astype(L), m.rewards.astype(L), L(m.discount)
    v = np.asarray(start, dtype=L)
    for _ in range(10**5):
        q = rewards + beta * (kernel @ v)
        if temperature is None:
            tv = q.max(axis=1)
        else:
            z = q / L(temperature)
            top = z.max(axis=1)
            tv = L(temperature) * (top + np.log(np.exp(z - top[:, None]).sum(axis=1)))
        bound = beta / (1 - beta) * np.abs(tv - v).max()
        v = tv
        if bound <= target:
            return v, float(bound)
    raise AssertionError("long-double oracle did not converge")


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(2, 5),
    num_actions=st.integers(2, 3),
    horizon_decades=st.floats(0.3, 3.0),
    log_temperature=st.floats(-6.0, 4.0),
    log_eps=st.floats(-9.0, -3.0),
)
# accepting the first 4-ulp gap after a full solve missed the bound here
@example(seed=291211002, num_states=2, num_actions=2, horizon_decades=3.0,
         log_temperature=1.68, log_eps=-6.47)
@example(seed=2841934290, num_states=5, num_actions=3, horizon_decades=3.0,
         log_temperature=2.66, log_eps=-5.36)
def test_corners_match_long_double_oracle(
    seed, num_states, num_actions, horizon_decades, log_temperature, log_eps
):
    # beta up to 0.999, temperatures 1e-6..1e4, and kernels an eps-mixture
    # away from the identity, whose chains are nearly reducible
    rng = np.random.default_rng(seed)
    beta = 1.0 - 10.0**-horizon_decades
    eps = 10.0**log_eps
    lam = 10.0**log_temperature
    noise = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    kernel = (1.0 - eps) * np.eye(num_states)[:, None, :] + eps * noise
    rewards = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    m = MDPInstance(kernel, rewards, beta, np.full(num_states, 1.0 / num_states))
    for temperature, tol in ((lam, soft_planning.FP_TOL * max(1.0, lam)),
                             (None, planning.VI_TOL)):
        if temperature is None:
            v = value_iteration(m)
        else:
            v, _ = soft_value_iteration(m, SoftPlanConfig(temperature=temperature))
        bound = max(tol, beta * 4.0 * np.spacing(np.abs(v).max()) / (1.0 - beta))
        oracle, oracle_err = long_double_oracle(m, temperature, v, 0.1 * bound)
        assert float(np.abs(v - oracle).max()) + oracle_err <= bound, temperature


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
