import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berknash import (
    ConjectureSet,
    SubjectiveKernel,
    divergence_vector,
    kl_cost_table,
    kl_divergence,
    long_run_divergence,
    mixture_family,
    mixture_kernel,
    state_action_frequencies,
    uniform_policy,
)
from _helpers import random_instance, random_policy


class TestKLDivergence:
    def test_identical_distributions_give_exact_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_mass_vs_fair_coin(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_direct_formula_value(self):
        expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert kl_divergence([0.8, 0.2], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.19274, abs=5e-6)
        # a stack of rows gives one value per row, each the row's own value
        nu = np.array([[[0.8, 0.2], [1.0, 0.0]], [[0.3, 0.7], [0.0, 1.0]]])
        mu = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.3, 0.7], [0.0, 1.0]]])
        rows = kl_divergence(nu, mu)
        assert rows.shape == (2, 2)
        assert rows[0, 0] == pytest.approx(expected, abs=1e-12)
        for idx in np.ndindex(2, 2):
            assert rows[idx] == kl_divergence(nu[idx], mu[idx])

    def test_absolute_continuity_violation_names_coordinate(self):
        with pytest.raises(ValueError, match="coordinate 1"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])
        nu = np.full((2, 3, 2), 0.5)
        mu = np.full((2, 3, 2), 0.5)
        mu[1, 2] = [0.0, 1.0]
        with pytest.raises(ValueError, match=r"at \(x=1, a=2\): .* coordinate 0"):
            kl_divergence(nu, mu)

    def test_zero_nu_terms_contribute_nothing(self):
        assert kl_divergence([0.0, 1.0], [0.0, 1.0]) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    )
    def test_nonnegative_on_random_simplex_pairs(self, raw_nu, raw_mu):
        size = min(len(raw_nu), len(raw_mu))
        nu = np.array(raw_nu[:size]) / sum(raw_nu[:size])
        mu = np.array(raw_mu[:size]) / sum(raw_mu[:size])
        val = kl_divergence(nu, mu)
        assert val >= 0.0
        if np.array_equal(nu, mu):
            assert val == 0.0
        elif np.abs(nu - mu).max() > 1e-6:
            assert val > 0.0


class TestKLCostTable:
    def test_true_kernel_gives_all_zero(self):
        rng = np.random.default_rng(1)
        m = random_instance(rng)
        c = kl_cost_table(m, m.kernel)
        assert np.all(c == 0.0)

    def test_single_entry_difference_is_local(self):
        rng = np.random.default_rng(2)
        m = random_instance(rng, num_states=3, num_actions=2)
        Q = np.array(m.kernel, copy=True)
        Q[0, 1] = np.array([0.2, 0.5, 0.3])
        c = kl_cost_table(m, Q)
        assert c[0, 1] > 0.0
        mask = np.ones((3, 2), dtype=bool)
        mask[0, 1] = False
        assert np.all(c[mask] == 0.0)

    def test_mixture_matches_per_entry_oracle(self):
        rng = np.random.default_rng(3)
        m = random_instance(rng, num_states=3, num_actions=2)
        q = mixture_kernel(m, 0.3)
        c = kl_cost_table(m, q)
        for x in range(3):
            for a in range(2):
                p_row = m.kernel[x, a]
                q_row = 0.7 * p_row + 0.3 / 3
                expected = float(np.sum(p_row * np.log(p_row / q_row)))
                assert c[x, a] == pytest.approx(expected, abs=1e-14)
                assert c[x, a] == kl_divergence(p_row, q.kernel[x, a])

    def test_error_carries_location(self):
        m = random_instance(np.random.default_rng(4), num_states=2, num_actions=2)
        Q = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        with pytest.raises(ValueError, match=r"x=0, a=0\): .* coordinate 1"):
            kl_cost_table(m, Q)


class TestLongRunDivergence:
    def test_zero_cost_table(self):
        d = np.array([[0.25, 0.25], [0.25, 0.25]])
        assert long_run_divergence(d, np.zeros((2, 2))) == 0.0

    def test_point_support_returns_single_entry(self):
        c = np.array([[0.3, 1.2], [0.7, 0.1]])
        d = np.zeros((2, 2))
        d[1, 0] = 1.0
        assert long_run_divergence(d, c) == pytest.approx(0.7)

    def test_uniform_policy_matches_definition(self):
        rng = np.random.default_rng(5)
        m = random_instance(rng, num_states=3, num_actions=2)
        q = mixture_kernel(m, 0.2)
        pi = uniform_policy(3, 2)
        c = kl_cost_table(m, q)
        d = state_action_frequencies(m, pi)
        from berknash import induced_kernel, stationary_distribution
        mu = stationary_distribution(induced_kernel(m, pi))
        expected = sum(
            mu[x] * pi[x, a] * c[x, a] for x in range(3) for a in range(2)
        )
        assert long_run_divergence(d, c) == pytest.approx(expected, abs=1e-14)

    def test_linearity_in_frequencies(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(0, 2, size=(3, 2))
        d1 = rng.dirichlet(np.ones(6)).reshape(3, 2)
        d2 = rng.dirichlet(np.ones(6)).reshape(3, 2)
        a = 0.37
        lhs = long_run_divergence(a * d1 + (1 - a) * d2, c)
        rhs = a * long_run_divergence(d1, c) + (1 - a) * long_run_divergence(d2, c)
        assert lhs == pytest.approx(rhs, abs=1e-15)


class TestPseudoTrueSet:
    """The pseudo-true model under a policy is the argmin of the long-run
    divergence at the policy's true frequencies."""

    @staticmethod
    def _pseudo_true(m, cs, pi):
        return int(divergence_vector(m, cs, state_action_frequencies(m, pi)).argmin())

    def test_true_kernel_always_wins(self):
        rng = np.random.default_rng(7)
        m = random_instance(rng)
        cs = ConjectureSet(
            members=(
                mixture_kernel(m, 0.4),
                SubjectiveKernel(kernel=m.kernel, label="truth"),
                mixture_kernel(m, 0.2),
            )
        )
        assert self._pseudo_true(m, cs, uniform_policy(3, 2)) == 1

    def test_singleton_set(self):
        rng = np.random.default_rng(8)
        m = random_instance(rng)
        cs = ConjectureSet(members=(mixture_kernel(m, 0.3),))
        assert self._pseudo_true(m, cs, uniform_policy(3, 2)) == 0

    def test_benchmark_grid_minimizer_is_smallest_eps(self):
        from berknash import benchmark3

        m, cs = benchmark3()
        assert cs.members[0].label == "eps=0.05"
        rng = np.random.default_rng(9)
        policies = [uniform_policy(3, 2)] + [random_policy(rng, 3, 2) for _ in range(5)]
        for pi in policies:
            assert self._pseudo_true(m, cs, pi) == 0


class TestMixtureFamily:
    def test_eps_zero_reproduces_truth(self):
        rng = np.random.default_rng(11)
        m = random_instance(rng)
        q = mixture_kernel(m, 0.0)
        np.testing.assert_array_equal(q.kernel, m.kernel)

    def test_eps_one_is_pure_noise(self):
        rng = np.random.default_rng(12)
        m = random_instance(rng, num_states=4)
        q = mixture_kernel(m, 1.0)
        np.testing.assert_allclose(q.kernel, np.full((4, 2, 4), 0.25), atol=1e-15)

    def test_half_mixture_arithmetic(self):
        kernel = np.zeros((3, 1, 3))
        kernel[:, 0, :] = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        from berknash import MDPInstance

        m = MDPInstance(kernel=kernel, rewards=np.zeros((3, 1)), discount=0.9,
                        initial_dist=np.full(3, 1 / 3))
        q = mixture_kernel(m, 0.5)
        np.testing.assert_allclose(q.kernel[0, 0], [2 / 3, 1 / 6, 1 / 6], atol=1e-15)

    def test_out_of_range_eps_rejected(self):
        rng = np.random.default_rng(13)
        m = random_instance(rng)
        with pytest.raises(ValueError, match="mixture weight"):
            mixture_kernel(m, 1.2)
        with pytest.raises(ValueError, match="mixture weight"):
            mixture_family(m, [0.1, -0.05])

    def test_cost_monotone_in_eps(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = random_instance(rng, num_states=3, num_actions=2)
            eps = np.sort(rng.uniform(0.01, 1.0, size=2))
            c_lo = kl_cost_table(m, mixture_kernel(m, eps[0]))
            c_hi = kl_cost_table(m, mixture_kernel(m, eps[1]))
            assert np.all(c_lo <= c_hi + 1e-12)

    def test_labels_unique_and_ordered(self):
        rng = np.random.default_rng(15)
        m = random_instance(rng)
        cs = mixture_family(m, [0.05, 0.15, 0.30, 0.45])
        assert [q.label for q in cs] == ["eps=0.05", "eps=0.15", "eps=0.3", "eps=0.45"]
        assert [q.param for q in cs] == [0.05, 0.15, 0.30, 0.45]

    def test_duplicate_labels_rejected(self):
        rng = np.random.default_rng(16)
        m = random_instance(rng)
        with pytest.raises(ValueError, match="unique"):
            mixture_family(m, [0.1, 0.1])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ConjectureSet(members=())


class TestSubjectiveKernel:
    @pytest.mark.parametrize(
        "bad_rows, where",
        [({(2, 1): [1.2, -0.2, 0.0]}, "x=2, a=1"),
         ({(1, 0): [0.5, 0.5, 0.5], (2, 1): [1.5, -0.5, 0.0]}, "x=1, a=0"),
         ({(0, 1): [np.nan, 0.5, 0.5]}, "x=0, a=1")],
        ids=["negative-entry", "first-of-two", "nan-entry"],
    )
    def test_error_names_first_bad_row(self, bad_rows, where):
        kernel = np.full((3, 2, 3), 1.0 / 3.0)
        for (x, a), row in bad_rows.items():
            kernel[x, a] = row
        with pytest.raises(ValueError, match=rf"not row-stochastic at \({where}\)"):
            SubjectiveKernel(kernel=kernel, label="bad")
