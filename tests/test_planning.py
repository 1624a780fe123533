import numpy as np
import pytest

from berknash import (
    MDPInstance,
    backup_values,
    bellman_operator,
    best_response_policy,
    build_dual_lp,
    build_primal_lp,
    enumerate_equilibria,
    greedy_sets,
    mixture_family,
    occupation_of_policy,
    policy_from_occupation,
    simplex_solve,
    value_iteration,
)
from _helpers import random_instance, random_policy


def scalar_instance(reward=1.0, discount=0.5):
    return MDPInstance(
        kernel=np.ones((1, 1, 1)),
        rewards=np.array([[reward]]),
        discount=discount,
        initial_dist=[1.0],
    )


class TestBellmanOperator:
    def test_single_action_is_affine(self):
        rng = np.random.default_rng(0)
        m = random_instance(rng, num_states=3, num_actions=1)
        v = rng.normal(size=3)
        expected = m.rewards[:, 0] + m.discount * m.kernel[:, 0, :] @ v
        np.testing.assert_allclose(bellman_operator(m, v), expected, atol=1e-15)

    def test_zero_continuation(self):
        rng = np.random.default_rng(1)
        m = random_instance(rng, num_states=4, num_actions=3)
        np.testing.assert_allclose(
            bellman_operator(m, np.zeros(4)), m.rewards.max(axis=1), atol=1e-15
        )

    def test_contraction_on_sampled_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
            v1 = rng.normal(scale=5.0, size=3)
            v2 = rng.normal(scale=5.0, size=3)
            lhs = np.abs(bellman_operator(m, v1) - bellman_operator(m, v2)).max()
            assert lhs <= m.discount * np.abs(v1 - v2).max() + 1e-12


class TestValueIteration:
    def test_constant_reward_fixed_point(self):
        rng = np.random.default_rng(3)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.8)
        m = MDPInstance(kernel=m.kernel, rewards=np.full((3, 2), 0.4),
                        discount=0.8, initial_dist=m.initial_dist)
        np.testing.assert_allclose(value_iteration(m), np.full(3, 2.0), atol=1e-9)

    def test_scalar_geometric_sum(self):
        v = value_iteration(scalar_instance(reward=1.0, discount=0.5))
        assert v[0] == pytest.approx(2.0, abs=1e-10)

    def test_matches_primal_lp(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
            v = value_iteration(m)
            sol = simplex_solve(build_primal_lp(m))
            assert sol.objective == pytest.approx(v.sum(), abs=1e-7)
            np.testing.assert_allclose(sol.x, v, atol=1e-7)

    def test_near_tie_below_act_tol_converges(self):
        # Staying in state 0 earns 1e-10 less per step than moving to the
        # absorbing state 1, so both actions sit within ACT_TOL of the best.
        # Policy iteration over that tolerant greedy set cycles; the exact
        # argmax reaches v = (9, 10).
        kernel = np.zeros((2, 2, 2))
        kernel[0, 0, 0] = kernel[0, 1, 1] = kernel[1, :, 1] = 1.0
        m = MDPInstance(kernel=kernel, rewards=np.array([[0.9 - 1e-10, 0.0], [1.0, 1.0]]),
                        discount=0.9, initial_dist=[1.0, 0.0])
        np.testing.assert_allclose(value_iteration(m), [9.0, 10.0], rtol=0, atol=1e-10)


class TestGreedySets:
    def test_strictly_dominant_action(self):
        kernel = np.tile(np.array([[0.5, 0.5]]), (2, 2, 1)).reshape(2, 2, 2)
        m = MDPInstance(kernel=kernel, rewards=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        discount=0.9, initial_dist=[0.5, 0.5])
        sets = greedy_sets(m, value_iteration(m))
        assert [s.tolist() for s in sets] == [[0], [1]]

    def test_exact_tie_includes_both(self):
        kernel = np.tile(np.array([[0.5, 0.5]]), (2, 2, 1)).reshape(2, 2, 2)
        m = MDPInstance(kernel=kernel, rewards=np.array([[0.7, 0.7], [0.2, 0.9]]),
                        discount=0.9, initial_dist=[0.5, 0.5])
        sets = greedy_sets(m, value_iteration(m))
        assert sets[0].tolist() == [0, 1]
        assert sets[1].tolist() == [1]

    def test_matches_independent_backup_comparison(self):
        rng = np.random.default_rng(5)
        m = random_instance(rng, num_states=4, num_actions=3, discount=0.9)
        v = value_iteration(m)
        q = m.rewards + m.discount * np.einsum("xay,y->xa", m.kernel, v)
        sets = greedy_sets(m, v)
        for x in range(4):
            expected = np.flatnonzero(q[x] >= q[x].max() - 1e-8)
            np.testing.assert_array_equal(sets[x], expected)


class TestBestResponsePolicy:
    def _tied_instance(self):
        # two identical actions everywhere: every state is a two-way tie
        row = np.array([[0.6, 0.4], [0.6, 0.4]])
        kernel = np.stack([row, row], axis=0).reshape(2, 2, 2)
        return MDPInstance(kernel=kernel, rewards=np.array([[0.5, 0.5], [0.1, 0.1]]),
                           discount=0.9, initial_dist=[0.5, 0.5])

    def test_dominant_action_gets_prob_one(self):
        kernel = np.tile(np.array([[0.5, 0.5]]), (2, 2, 1)).reshape(2, 2, 2)
        m = MDPInstance(kernel=kernel, rewards=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        discount=0.9, initial_dist=[0.5, 0.5])
        np.testing.assert_array_equal(
            best_response_policy(m), np.array([[1.0, 0.0], [0.0, 1.0]])
        )

    def test_lowest_index_tie_rule(self):
        pi = best_response_policy(self._tied_instance())
        np.testing.assert_array_equal(pi, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_uniform_tie_rule(self):
        # with one model every greedy policy is an equilibrium: hard mode
        # reports one, with no rival to hold a margin against
        m = self._tied_instance()
        report = enumerate_equilibria(m, mixture_family(m, [0.1]), mode="hard")
        assert len(report.diagnostics) == 1 and report.equilibria == report.diagnostics
        entry = report.equilibria[0]
        assert entry.kl_margin == np.inf
        # both actions are greedy in both states, so any policy row is greedy
        assert [s.tolist() for s in greedy_sets(m, value_iteration(m))] == [[0, 1], [0, 1]]
        assert (entry.policy >= 0.0).all()
        np.testing.assert_allclose(entry.policy.sum(axis=1), 1.0)


class TestPrimalLP:
    def test_scalar_dimensions(self):
        lp = build_primal_lp(scalar_instance())
        assert lp.objective.shape == (1,)
        assert lp.constraints.shape == (1, 1)
        assert lp.senses == (">=",)
        assert np.isneginf(lp.lower_bounds).all()

    def test_two_by_two_dimensions(self):
        rng = np.random.default_rng(6)
        m = random_instance(rng, num_states=2, num_actions=2)
        lp = build_primal_lp(m)
        assert lp.constraints.shape == (4, 2)
        assert np.all(lp.objective == 1.0)

    def test_constraints_at_fixed_point(self):
        rng = np.random.default_rng(7)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
        v = value_iteration(m)
        lp = build_primal_lp(m)
        slack = lp.constraints @ v - lp.rhs
        assert slack.min() >= -1e-9
        sets = greedy_sets(m, v)
        for x in range(3):
            for a in sets[x]:
                assert abs(slack[x * 2 + a]) <= 1e-8


    def test_rows_match_elementwise_definition(self):
        rng = np.random.default_rng(13)
        for S, A in ((1, 1), (3, 2), (4, 3)):
            m = random_instance(rng, num_states=S, num_actions=A)
            m = m.with_kernel(np.where(rng.random(m.kernel.shape) < 0.3, 0.0, m.kernel))
            rows = np.zeros((S * A, S))
            for x in range(S):
                for a in range(A):
                    rows[x * A + a] = -m.discount * m.kernel[x, a]
                    rows[x * A + a, x] += 1.0
            # bytes, so signed zeros count too; the dual's matrix is the transpose
            assert build_primal_lp(m).constraints.tobytes() == rows.tobytes()
            assert build_primal_lp(m).rhs.tobytes() == m.rewards.tobytes()
            assert build_dual_lp(m).constraints.tobytes() == rows.T.copy().tobytes()


class TestDualLP:
    def test_scalar_unique_feasible_point(self):
        m = scalar_instance(discount=0.5)
        sol = simplex_solve(build_dual_lp(m))
        assert sol.x[0] == pytest.approx(1.0 / 0.5, abs=1e-10)

    def test_myopic_limit_puts_mass_on_argmax_rewards(self):
        rng = np.random.default_rng(8)
        m = random_instance(rng, num_states=3, num_actions=2, discount=1e-9)
        sol = simplex_solve(build_dual_lp(m))
        eta = sol.x.reshape(3, 2)
        np.testing.assert_allclose(eta.sum(axis=1), m.initial_dist, atol=1e-8)
        for x in range(3):
            assert eta[x, np.argmax(m.rewards[x])] == pytest.approx(
                m.initial_dist[x], abs=1e-8
            )

    def test_strong_duality_weighted_by_initial_dist(self):
        rng = np.random.default_rng(9)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
        v = value_iteration(m)
        sol = simplex_solve(build_dual_lp(m))
        assert sol.objective == pytest.approx(float(m.initial_dist @ v), abs=1e-8)

    def test_uniform_initial_dist_scales_to_primal(self):
        rng = np.random.default_rng(10)
        m = random_instance(rng, num_states=4, num_actions=2, discount=0.85)
        m = MDPInstance(kernel=m.kernel, rewards=m.rewards, discount=0.85,
                        initial_dist=np.full(4, 0.25))
        dual = simplex_solve(build_dual_lp(m))
        primal = simplex_solve(build_primal_lp(m))
        assert 4 * dual.objective == pytest.approx(primal.objective, abs=1e-8)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_instance(rng, num_states=3, num_actions=3, discount=0.9)
            primal = simplex_solve(build_primal_lp(m))
            dual = simplex_solve(build_dual_lp(m))
            lp = build_primal_lp(m)
            slack = lp.constraints @ primal.x - lp.rhs
            eta = dual.x.reshape(3, 3)
            for x in range(3):
                for a in range(3):
                    if eta[x, a] > 1e-8:
                        assert abs(slack[x * 3 + a]) <= 1e-8

    def test_total_occupation_mass(self):
        rng = np.random.default_rng(12)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
        sol = simplex_solve(build_dual_lp(m))
        assert sol.x.sum() == pytest.approx(1.0 / (1.0 - 0.9), abs=1e-8)


class TestOccupationMeasures:
    def test_normalization_example(self):
        eta = np.array([[0.3, 0.1], [0.2, 0.2]])
        pi = policy_from_occupation(eta)
        np.testing.assert_allclose(pi[0], [0.75, 0.25])
        np.testing.assert_allclose(pi[1], [0.5, 0.5])

    def test_zero_marginal_takes_fallback(self):
        eta = np.array([[0.0, 0.0], [0.4, 0.4]])
        pi = policy_from_occupation(eta)
        np.testing.assert_allclose(pi[0], [0.5, 0.5])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            policy_from_occupation(np.array([[0.5, -0.1], [0.3, 0.3]]))

    def test_dual_optimum_policy_is_greedy(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
            sol = simplex_solve(build_dual_lp(m))
            pi = policy_from_occupation(sol.x.reshape(3, 2))
            sets = greedy_sets(m, value_iteration(m))
            for x in range(3):
                support = set(np.flatnonzero(pi[x] > 1e-8).tolist())
                assert support <= set(sets[x].tolist())

    def test_scalar_occupation(self):
        m = scalar_instance(discount=0.5)
        eta = occupation_of_policy(m, np.array([[1.0]]))
        assert eta[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_small_discount_one_step_mass(self):
        rng = np.random.default_rng(14)
        m = random_instance(rng, num_states=3, num_actions=2, discount=1e-10)
        pi = random_policy(rng, 3, 2)
        eta = occupation_of_policy(m, pi)
        np.testing.assert_allclose(eta, m.initial_dist[:, None] * pi, atol=1e-9)

    def test_best_response_occupation_attains_dual_optimum(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
            pi = best_response_policy(m)
            eta = occupation_of_policy(m, pi)
            dual = simplex_solve(build_dual_lp(m))
            assert float((m.rewards * eta).sum()) == pytest.approx(
                dual.objective, abs=1e-8
            )

    def test_flow_constraint_residual(self):
        rng = np.random.default_rng(16)
        m = random_instance(rng, num_states=4, num_actions=3, discount=0.95)
        pi = random_policy(rng, 4, 3)
        eta = occupation_of_policy(m, pi)
        inflow = m.initial_dist + 0.95 * np.einsum("yax,ya->x", m.kernel, eta)
        np.testing.assert_allclose(eta.sum(axis=1), inflow, atol=1e-10)

    def test_round_trip_policy_recovery(self):
        rng = np.random.default_rng(17)
        m = random_instance(rng, num_states=3, num_actions=2, discount=0.9)
        pi = random_policy(rng, 3, 2)
        recovered = policy_from_occupation(occupation_of_policy(m, pi))
        np.testing.assert_allclose(recovered, pi, atol=1e-12)


def test_backup_values_shape_and_content():
    rng = np.random.default_rng(18)
    m = random_instance(rng, num_states=3, num_actions=2)
    v = rng.normal(size=3)
    q = backup_values(m, v)
    assert q.shape == (3, 2)
    assert q[1, 0] == pytest.approx(
        m.rewards[1, 0] + m.discount * float(m.kernel[1, 0] @ v), abs=1e-14
    )
