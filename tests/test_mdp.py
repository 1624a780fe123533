import numpy as np
import pytest

from berknash import (
    MDPInstance,
    ReducibleChainError,
    induced_kernel,
    policy_from_occupation,
    policy_value,
    state_action_frequencies,
    stationary_distribution,
    uniform_policy,
    validate_instance,
)
from _helpers import power_iteration_stationary, random_instance, random_policy, truncated_series_value


def two_state_instance(discount=0.9):
    kernel = np.array([[[0.5, 0.5], [0.9, 0.1]], [[0.3, 0.7], [0.5, 0.5]]])
    rewards = np.array([[1.0, 0.0], [0.5, 2.0]])
    return MDPInstance(
        kernel=kernel, rewards=rewards, discount=discount, initial_dist=[0.5, 0.5]
    )


class TestValidateInstance:
    def test_valid_instance_passes(self):
        validate_instance(two_state_instance())

    def test_broken_row_sum_names_the_pair(self):
        kernel = np.array([[[0.5, 0.5], [0.5, 0.48]], [[0.3, 0.7], [0.5, 0.5]]])
        m = MDPInstance(kernel=kernel, rewards=np.zeros((2, 2)), discount=0.9,
                        initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match=r"x=0, a=1"):
            validate_instance(m)

    def test_discount_open_interval(self):
        m = MDPInstance(kernel=two_state_instance().kernel, rewards=np.zeros((2, 2)),
                        discount=1.0, initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match="discount out of range"):
            validate_instance(m)

    def test_negative_kernel_entry(self):
        kernel = np.array([[[1.1, -0.1], [0.5, 0.5]], [[0.3, 0.7], [0.5, 0.5]]])
        m = MDPInstance(kernel=kernel, rewards=np.zeros((2, 2)), discount=0.9,
                        initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            validate_instance(m)

    def test_initial_dist_must_normalize(self):
        m = MDPInstance(kernel=two_state_instance().kernel, rewards=np.zeros((2, 2)),
                        discount=0.9, initial_dist=[0.6, 0.5])
        with pytest.raises(ValueError, match="initial_dist"):
            validate_instance(m)

    def test_non_finite_reward_located(self):
        m = MDPInstance(kernel=two_state_instance().kernel,
                        rewards=np.array([[0.0, np.inf], [0.0, 0.0]]),
                        discount=0.9, initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match=r"x=0, a=1"):
            validate_instance(m)

    def test_nan_entries_located(self):
        # NaN fails every comparison, so range and sum checks alone let it through
        kernel = two_state_instance().kernel.copy()
        kernel[1, 0] = [np.nan, 0.5]
        m = MDPInstance(kernel=kernel, rewards=np.zeros((2, 2)), discount=0.9,
                        initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match=r"kernel non-finite at \(x=1, a=0, x'=0\)"):
            validate_instance(m)
        m = MDPInstance(kernel=two_state_instance().kernel, rewards=np.zeros((2, 2)),
                        discount=0.9, initial_dist=[0.5, np.nan])
        with pytest.raises(ValueError, match=r"initial_dist non-finite at \(x=1\)"):
            validate_instance(m)


class TestInducedKernel:
    def test_deterministic_policy_selects_action_rows(self):
        m = two_state_instance()
        pi = np.eye(m.num_actions)[[0, 0]]
        np.testing.assert_array_equal(induced_kernel(m, pi), m.kernel[:, 0, :])

    def test_even_mixture_of_point_masses(self):
        kernel = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        m = MDPInstance(kernel=kernel, rewards=np.zeros((2, 2)), discount=0.9,
                        initial_dist=[0.5, 0.5])
        P = induced_kernel(m, uniform_policy(2, 2))
        np.testing.assert_allclose(P, np.full((2, 2), 0.5))

    def test_matches_elementwise_brute_force(self):
        rng = np.random.default_rng(7)
        m = random_instance(rng, num_states=3, num_actions=2)
        pi = random_policy(rng, 3, 2)
        P = induced_kernel(m, pi)
        for x in range(3):
            for y in range(3):
                expected = sum(pi[x, a] * m.kernel[x, a, y] for a in range(2))
                assert P[x, y] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        m = two_state_instance()
        with pytest.raises(ValueError, match="policy shape"):
            induced_kernel(m, uniform_policy(3, 2))

    def test_rows_stay_stochastic_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            S = int(rng.integers(2, 6))
            A = int(rng.integers(1, 5))
            m = random_instance(rng, S, A)
            P = induced_kernel(m, random_policy(rng, S, A))
            np.testing.assert_allclose(P.sum(axis=1), np.ones(S), atol=1e-12)
            assert np.all(P >= 0)


class TestStationaryDistribution:
    def test_symmetric_chain(self):
        mu = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)

    def test_two_state_closed_form(self):
        p, q = 0.2, 0.3
        mu = stationary_distribution(np.array([[1 - p, p], [q, 1 - q]]))
        np.testing.assert_allclose(mu, [q / (p + q), p / (p + q)], atol=1e-12)

    def test_agrees_with_power_iteration_oracle(self):
        rng = np.random.default_rng(3)
        P = rng.dirichlet(np.ones(3), size=3)
        mu = stationary_distribution(P)
        oracle = power_iteration_stationary(P)
        np.testing.assert_allclose(mu, oracle, atol=1e-8)

    def test_reducible_chain_names_a_pair(self):
        P = np.array([[1.0, 0.0], [0.5, 0.5]])  # state 1 unreachable from 0
        with pytest.raises(ReducibleChainError, match="state 1"):
            stationary_distribution(P)

    def test_reducible_chain_names_a_state_that_cannot_return(self):
        # every state is reachable from 0, but 0 is left for good
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        with pytest.raises(ReducibleChainError,
                           match="^chain is reducible: state 0 is not reachable from state 1$"):
            stationary_distribution(P)

    @staticmethod
    def _cycle(n):
        return np.roll(np.eye(n), 1, axis=1)  # k -> k + 1 (mod n)

    def test_cycles_are_irreducible(self):
        # reaching state n - 1 from 0 takes the longest path an n-cycle has
        for n in range(1, 10):
            mu = stationary_distribution(self._cycle(n))
            np.testing.assert_allclose(mu, np.full(n, 1.0 / n), atol=1e-12)

    def test_cut_cycle_names_the_first_unreachable_state(self):
        for n in range(2, 10):
            for k in range(n - 1):
                P = self._cycle(n)
                P[k] = np.eye(n)[k]  # k -> k + 1 cut: k now stays put
                msg = f"^chain is reducible: state {k + 1} is not reachable from state 0$"
                with pytest.raises(ReducibleChainError, match=msg):
                    stationary_distribution(P)

    def test_periodic_but_irreducible_is_fine(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        mu = stationary_distribution(P)
        np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)

    def test_fixed_point_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            P = rng.dirichlet(np.ones(n), size=n)
            mu = stationary_distribution(P)
            assert np.abs(mu @ P - mu).sum() <= 1e-10
            assert mu.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(mu >= 0)


class TestStateActionFrequencies:
    def test_deterministic_policy_indicator_split(self):
        m = two_state_instance()
        pi = np.eye(m.num_actions)[[0, 1]]
        d = state_action_frequencies(m, pi)
        mu = stationary_distribution(induced_kernel(m, pi))
        np.testing.assert_allclose(d[:, 0], [mu[0], 0.0], atol=1e-14)
        np.testing.assert_allclose(d[:, 1], [0.0, mu[1]], atol=1e-14)

    def test_uniform_policy_even_split(self):
        m = two_state_instance()
        d = state_action_frequencies(m, uniform_policy(2, 2))
        mu = stationary_distribution(induced_kernel(m, uniform_policy(2, 2)))
        np.testing.assert_allclose(d, np.broadcast_to(mu[:, None] / 2, (2, 2)), atol=1e-14)

    def test_flow_balance_residual(self):
        rng = np.random.default_rng(9)
        m = random_instance(rng, num_states=3, num_actions=2)
        pi = random_policy(rng, 3, 2)
        d = state_action_frequencies(m, pi)
        assert d.sum() == pytest.approx(1.0, abs=1e-10)
        outflow = d.sum(axis=1)
        inflow = np.einsum("xay,xa->y", m.kernel, d)
        assert np.abs(outflow - inflow).max() <= 1e-10

    def test_policy_recovered_on_supported_states(self):
        rng = np.random.default_rng(13)
        m = random_instance(rng, num_states=4, num_actions=3)
        pi = random_policy(rng, 4, 3)
        d = state_action_frequencies(m, pi)
        np.testing.assert_allclose(policy_from_occupation(d), pi, atol=1e-12)

    def test_zero_marginal_rows_take_fallback(self):
        d = np.array([[0.6, 0.4], [0.0, 0.0]])
        pi = policy_from_occupation(d)
        np.testing.assert_allclose(pi, [[0.6, 0.4], [0.5, 0.5]])


class TestPolicyValue:
    def test_constant_reward_geometric_series(self):
        m = two_state_instance(discount=0.9)
        m = MDPInstance(kernel=m.kernel, rewards=np.full((2, 2), 0.7),
                        discount=0.9, initial_dist=m.initial_dist)
        v = policy_value(m, uniform_policy(2, 2))
        np.testing.assert_allclose(v, np.full(2, 0.7 / 0.1), atol=1e-9)

    def test_myopic_limit(self):
        m = two_state_instance(discount=1e-12)
        pi = np.array([[0.2, 0.8], [0.6, 0.4]])
        v = policy_value(m, pi)
        rpi = (pi * m.rewards).sum(axis=1)
        np.testing.assert_allclose(v, rpi, atol=1e-10)

    def test_matches_truncated_series_oracle(self):
        rng = np.random.default_rng(21)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.95)
        pi = random_policy(rng, 3, 2)
        np.testing.assert_allclose(
            policy_value(m, pi), truncated_series_value(m, pi, terms=2000), atol=1e-8
        )

    def test_linear_solve_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = random_instance(rng, num_states=4, num_actions=3, discount=0.95)
            pi = random_policy(rng, 4, 3)
            v = policy_value(m, pi)
            Kpi = induced_kernel(m, pi)
            rpi = (pi * m.rewards).sum(axis=1)
            residual = (np.eye(4) - m.discount * Kpi) @ v - rpi
            assert np.abs(residual).max() <= 1e-10

