import numpy as np
import pytest

from berknash import (
    ConjectureSet,
    MDPInstance,
    SoftPlanConfig,
    SubjectiveKernel,
    benchmark3,
    bilevel_objective,
    best_response_policy,
    check_joint_feasibility,
    entropy_bn_select,
    enumerate_equilibria,
    kl_cost_table,
    long_run_divergence,
    mixture_family,
    mixture_kernel,
    occupation_of_policy,
    soft_best_response,
    state_action_frequencies,
)
from berknash import equilibrium
from berknash.equilibrium import (
    FEAS_TOL,
    GROUP_KL_MINIMALITY,
    GROUP_OPTIMALITY,
    GROUP_SUBJECTIVE_FLOW,
    GROUP_TRUE_FREQUENCY,
)
from _helpers import action1_family, action1_fixed_points, random_instance


class TestCheckJointFeasibility:
    def setup_method(self):
        self.m, self.cs = benchmark3()
        report = enumerate_equilibria(self.m, self.cs)
        assert report.equilibria, "benchmark must have a hard equilibrium"
        entry = report.equilibria[0]
        self.k = entry.model_index
        self.pi = entry.policy

    def test_equilibrium_candidate_passes(self):
        report = check_joint_feasibility(self.m, self.cs, self.k, self.pi)
        assert report.passed
        assert max(report.residuals.values()) <= 1e-7

    def test_perturbed_frequencies_fail_true_flow(self, monkeypatch):
        def perturbed(m, pi):
            d = state_action_frequencies(m, pi)
            d[0, 0] += 0.01
            return d / d.sum()

        monkeypatch.setattr(equilibrium, "state_action_frequencies", perturbed)
        report = check_joint_feasibility(self.m, self.cs, self.k, self.pi)
        assert not report.passed
        assert GROUP_TRUE_FREQUENCY in report.failed_groups

    def test_worst_model_fails_kl_minimality(self):
        report = check_joint_feasibility(self.m, self.cs, len(self.cs) - 1, self.pi)
        assert not report.passed
        assert GROUP_KL_MINIMALITY in report.failed_groups

    def test_perturbed_occupation_fails_subjective_flow(self, monkeypatch):
        def perturbed(m, pi):
            eta = occupation_of_policy(m, pi)
            eta[1, 1] += 0.05
            return eta

        monkeypatch.setattr(equilibrium, "occupation_of_policy", perturbed)
        report = check_joint_feasibility(self.m, self.cs, self.k, self.pi)
        assert not report.passed
        assert GROUP_SUBJECTIVE_FLOW in report.failed_groups

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError, match="model index"):
            check_joint_feasibility(self.m, self.cs, 99, self.pi)

    # model 0's optimality gap per unit of discounted mass for each of its
    # deterministic policies; only (0, 0, 1), its best response, is optimal
    @pytest.mark.parametrize("actions, gap", [
        ((0, 0, 0), 0.02374), ((0, 0, 1), 0.0), ((0, 1, 0), 0.06349), ((0, 1, 1), 0.04553),
        ((1, 0, 0), 0.05317), ((1, 0, 1), 0.03277), ((1, 1, 0), 0.11843), ((1, 1, 1), 0.28175),
    ])
    def test_hard_optimality_of_deterministic_policies(self, actions, gap):
        pi = np.eye(2)[list(actions)]
        report = check_joint_feasibility(self.m, self.cs, 0, pi)
        assert report.residuals[GROUP_OPTIMALITY] == pytest.approx(gap, abs=1e-5)
        assert (GROUP_OPTIMALITY in report.failed_groups) == (gap > 0.0)
        if gap == 0.0:
            assert report.passed and report.residuals[GROUP_OPTIMALITY] <= 1e-15

    @pytest.mark.parametrize("policy_temperature, gap", [(1.0, 0.07188), (0.01, 0.004283)])
    def test_soft_optimality_of_another_temperature(self, policy_temperature, gap):
        m0 = self.m.with_kernel(self.cs.members[0].kernel)
        pi, _, _ = soft_best_response(m0, SoftPlanConfig(temperature=policy_temperature))
        report = check_joint_feasibility(self.m, self.cs, 0, pi, 0.1)
        assert report.residuals[GROUP_OPTIMALITY] == pytest.approx(gap, rel=1e-3)
        assert report.failed_groups == (GROUP_OPTIMALITY,)

    def test_uniform_policy_is_soft_optimal_only_at_high_temperature(self):
        uniform = np.full((3, 2), 0.5)
        cold = check_joint_feasibility(self.m, self.cs, 0, uniform, 1e-4)
        assert cold.residuals[GROUP_OPTIMALITY] == pytest.approx(0.1551, abs=1e-4)
        assert GROUP_OPTIMALITY in cold.failed_groups
        hot = check_joint_feasibility(self.m, self.cs, 0, uniform, 1e4)
        assert hot.passed and hot.residuals[GROUP_OPTIMALITY] <= FEAS_TOL


class TestEnumerateEquilibria:
    def test_singleton_true_model(self):
        rng = np.random.default_rng(0)
        m = random_instance(rng)
        cs = ConjectureSet(members=(SubjectiveKernel(kernel=m.kernel, label="truth"),))
        report = enumerate_equilibria(m, cs)
        assert len(report.equilibria) == 1
        assert report.equilibria[0].model_index == 0
        assert report.equilibria[0].divergence == 0.0

    def test_true_model_among_noisier_ones(self):
        rng = np.random.default_rng(1)
        m = random_instance(rng)
        members = (
            mixture_kernel(m, 0.3),
            SubjectiveKernel(kernel=m.kernel, label="truth"),
            mixture_kernel(m, 0.15),
        )
        report = enumerate_equilibria(m, ConjectureSet(members=members))
        assert 1 in [e.model_index for e in report.equilibria]

    def test_benchmark_equilibrium_both_modes(self):
        m, cs = benchmark3()
        hard = enumerate_equilibria(m, cs)
        soft = enumerate_equilibria(m, cs, temperature=0.1)
        assert [e.model_index for e in hard.equilibria] == [0]
        assert [e.model_index for e in soft.equilibria] == [0]

    def test_temperature_alone_selects_soft_mode(self):
        # a temperature is the soft mode: its softmax policies, re-checked
        # for soft optimality; None is the hard mode's max-margin LP
        m, cs = benchmark3()
        soft = enumerate_equilibria(m, cs, temperature=0.1).diagnostics
        for k, diag in enumerate(soft):
            pi, _, _ = soft_best_response(m.with_kernel(cs.members[k].kernel),
                                          SoftPlanConfig(temperature=0.1))
            np.testing.assert_array_equal(diag.policy, pi)
        hard = enumerate_equilibria(m, cs, None).diagnostics
        assert not np.array_equal(hard[0].policy, soft[0].policy)
        assert hard[0].feasibility.residuals[GROUP_OPTIMALITY] <= FEAS_TOL

    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-6, 1e-5])
    def test_max_margin_lp_solves_near_ties(self, eps):
        # benchmark3's truth against a rival eps away: with all S balance
        # rows, phase 1 stalled at eps = 1e-7..1e-5 on round-off in the
        # redundant row and reported the LP infeasible
        m, _ = benchmark3()
        report = enumerate_equilibria(m, mixture_family(m, [0.0, eps]))
        assert [e.model_index for e in report.equilibria] == [0, 1]
        for e in report.equilibria:
            assert abs(e.kl_margin) <= FEAS_TOL and e.tied == (1 - e.model_index,)

    def test_benchmark_hard_margins(self):
        # each model's largest KL margin over greedy policies; only model 0's is positive
        m, cs = benchmark3()
        report = enumerate_equilibria(m, cs)
        np.testing.assert_allclose([d.kl_margin for d in report.diagnostics],
                                   [0.0690345, -0.0690345, -0.1849363, -0.3170601], atol=1e-7)

    def test_tie_instance_accepts_interior_mixture(self):
        # zero rewards make every policy greedy under every model, so the hard
        # search must find, for p = 0.3, the mixture in state 0 whose true
        # frequencies favour p = 0.3; no tie-break rule reaches it
        kernel = np.array([[[0.9, 0.1], [0.1, 0.9]], [[0.5, 0.5], [0.5, 0.5]]])
        m = MDPInstance(kernel=kernel, rewards=np.zeros((2, 2)), discount=0.9,
                        initial_dist=[0.5, 0.5])
        cs = ConjectureSet(members=tuple(
            SubjectiveKernel(kernel=[[[1 - p, p]] * 2, [[0.5, 0.5]] * 2], label=f"p={p}")
            for p in (0.1, 0.3, 0.6)
        ))
        hard = enumerate_equilibria(m, cs)
        assert [e.model_index for e in hard.equilibria] == [0, 1, 2]
        interior = hard.equilibria[1]
        np.testing.assert_allclose(interior.policy[0], [0.7355, 0.2645], atol=1e-4)
        assert interior.kl_margin == pytest.approx(0.1043, abs=1e-4)
        # entropy regularization picks the uniform mixture, which only p = 0.6 fits
        for lam in (1e-3, 0.1, 10.0):
            soft = enumerate_equilibria(m, cs, temperature=lam)
            assert [e.model_index for e in soft.equilibria] == [2], lam

    @staticmethod
    def _self_loop_instance():
        # state 0: action 0 stays, action 1 moves to state 1; state 1 returns
        # to state 0. Zero rewards make every action greedy under every model.
        kernel = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
        return MDPInstance(kernel=kernel, rewards=np.zeros((2, 2)), discount=0.9,
                           initial_dist=[0.5, 0.5])

    def test_reducible_vertex_is_mixed_with_uniform_greedy(self):
        # the LP's vertex puts all mass on state 0's self-loop, a closed class
        # that never reaches state 1; the uniform greedy policy is irreducible
        # and correct, so the one model must still be accepted
        m = self._self_loop_instance()
        cs = ConjectureSet(members=(SubjectiveKernel(kernel=m.kernel, label="truth"),))
        (diag,) = enumerate_equilibria(m, cs).diagnostics
        assert diag.accepted, diag.reason
        assert diag.kl_margin == np.inf
        np.testing.assert_allclose(diag.policy, [[0.5, 0.5], [0.5, 0.5]])

    def test_mixture_keeps_the_max_margin(self):
        # the wrong model misreads only state 0's self-loop, so the truth's
        # margin log 2 is largest at the reducible vertex on that loop; the
        # mixture that reaches state 1 gives up at most FEAS_TOL / 2 of it
        m = self._self_loop_instance()
        wrong = m.kernel.copy()
        wrong[0, 0] = [0.5, 0.5]
        cs = ConjectureSet(members=(SubjectiveKernel(kernel=m.kernel, label="truth"),
                                    SubjectiveKernel(kernel=wrong, label="wrong")))
        truth, misread = enumerate_equilibria(m, cs).diagnostics
        assert truth.accepted, truth.reason
        assert truth.kl_margin == pytest.approx(np.log(2), abs=FEAS_TOL / 2 + 1e-9)
        assert 0.0 < truth.policy[0, 1] < 1e-7
        # never taking the self-loop, the wrong model fits as well as the truth
        assert misread.accepted and misread.kl_margin == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(misread.policy, [[0.0, 1.0], [1.0, 0.0]])

    def test_vertex_on_two_closed_classes_is_joined(self):
        # action 0 stays put in either state, action 1 switches state; one
        # rival misreads state 0's loop and one state 1's, so the truth's best
        # vertex weights both loops and has full support but two closed classes
        kernel = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
        m = MDPInstance(kernel=kernel, rewards=np.zeros((2, 2)), discount=0.9,
                        initial_dist=[0.5, 0.5])
        loop0, loop1 = kernel.copy(), kernel.copy()
        loop0[0, 0], loop1[1, 0] = [0.5, 0.5], [0.2, 0.8]
        cs = ConjectureSet(members=(SubjectiveKernel(kernel=kernel, label="truth"),
                                    SubjectiveKernel(kernel=loop0, label="loop0"),
                                    SubjectiveKernel(kernel=loop1, label="loop1")))
        truth = enumerate_equilibria(m, cs).diagnostics[0]
        a, b = np.log(2), -np.log(0.8)  # each rival's KL cost on its loop
        assert truth.accepted, truth.reason
        assert truth.kl_margin == pytest.approx(a * b / (a + b), abs=FEAS_TOL / 2 + 1e-9)
        assert np.all(truth.policy[:, 1] > 0.0)

    def test_action1_family_grid(self):
        # the fit depends on the policy: the hard equilibrium theta* = 0.164
        # lies nearest grid point 0.2, and at lambda = 0.1 the soft fixed
        # point 0.445 lies between grid points 0.4 and 0.5
        m, _ = benchmark3()
        grid = np.linspace(0.0, 1.0, 11).tolist()
        cs = action1_family(m, grid)
        hard = enumerate_equilibria(m, cs)
        soft = enumerate_equilibria(m, cs, temperature=0.1)
        [theta_star] = action1_fixed_points(m, 1e-4)
        nearest = min(grid, key=lambda theta: abs(theta - theta_star))
        assert [cs.members[e.model_index].param for e in hard.equilibria] == [nearest] == [0.2]
        assert [cs.members[e.model_index].param for e in soft.equilibria] == [0.4, 0.5]

    @pytest.mark.parametrize("temperature, theta_star, tol", [
        (1.0, 0.4738, 5e-5), (0.3, 0.4736, 5e-5), (0.1, 0.4452, 5e-5),
        (0.03, 0.16393, 5e-6), (0.01, 0.16393, 5e-6), (1e-3, 0.16393, 5e-6),
        (1e-4, 0.16393, 5e-6),
    ])
    def test_action1_family_soft_fixed_point(self, temperature, theta_star, tol):
        # one soft equilibrium theta*(lambda) on [0, 1]; as lambda -> 0 it
        # reaches the hard equilibrium 0.16393
        m, _ = benchmark3()
        [root] = action1_fixed_points(m, temperature)
        assert root == pytest.approx(theta_star, abs=tol)

    def test_every_reported_equilibrium_reverified(self):
        m, cs = benchmark3()
        for temp in (None, 0.1):
            report = enumerate_equilibria(m, cs, temperature=temp)
            for entry in report.equilibria:
                assert entry.feasibility.passed
                assert max(entry.feasibility.residuals.values()) <= 1e-7

    def test_diagnostics_cover_all_models(self):
        m, cs = benchmark3()
        report = enumerate_equilibria(m, cs, temperature=0.1)
        assert sorted(d.model_index for d in report.diagnostics) == [0, 1, 2, 3]
        rejected = [d for d in report.diagnostics if not d.accepted]
        assert all("not KL-minimal" in d.reason for d in rejected)


class TestTied:
    def test_soft_near_tie_names_both_models(self):
        # at lambda = 1e-6 the rival 1e-12 away fits the data as well as the
        # truth, so each accepted model is tied with the other
        m, _ = benchmark3()
        report = enumerate_equilibria(m, mixture_family(m, [0.0, 1e-12]), temperature=1e-6)
        assert [(e.model_index, e.tied) for e in report.equilibria] == [(0, (1,)), (1, (0,))]
        assert all(e.kl_margin <= FEAS_TOL for e in report.equilibria)

    def test_distant_rivals_are_not_tied(self):
        m, cs = benchmark3()
        for diag in enumerate_equilibria(m, cs).diagnostics:
            assert diag.tied == () and abs(diag.kl_margin) > FEAS_TOL

    def test_one_model_has_no_ties(self):
        m, _ = benchmark3()
        (diag,) = enumerate_equilibria(m, mixture_family(m, [0.1])).diagnostics
        assert diag.accepted and diag.kl_margin == np.inf and diag.tied == ()

    def test_reducible_candidate_has_no_ties(self):
        # every action stays put: each true chain splits, so no candidate
        # has a divergence vector to compare
        kernel = np.stack([np.eye(2), np.eye(2)], axis=1)
        m = MDPInstance(kernel=kernel, rewards=np.eye(2), discount=0.9,
                        initial_dist=[0.5, 0.5])
        cs = mixture_family(m, [0.0, 0.1])
        for temp in (None, 0.1):
            for diag in enumerate_equilibria(m, cs, temp).diagnostics:
                assert diag.divergence_vector is None and diag.tied == ()
                assert diag.reason.startswith("skipped: chain is reducible")


class TestBilevelObjective:
    def test_true_kernel_gives_zero(self):
        rng = np.random.default_rng(2)
        m = random_instance(rng)
        cs = ConjectureSet(
            members=(SubjectiveKernel(kernel=m.kernel, label="truth"),
                     mixture_kernel(m, 0.4))
        )
        assert bilevel_objective(m, cs, 0, 0.1) == 0.0

    def test_uniform_rows_make_every_mixture_exact(self):
        from berknash import MDPInstance

        S = 3
        kernel = np.full((S, 2, S), 1.0 / S)
        m = MDPInstance(kernel=kernel, rewards=np.random.default_rng(3).uniform(size=(S, 2)),
                        discount=0.9, initial_dist=np.full(S, 1 / S))
        cs = mixture_family(m, [0.2, 0.7])
        assert bilevel_objective(m, cs, 0, 0.1) == pytest.approx(0.0, abs=1e-15)
        assert bilevel_objective(m, cs, 1, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_matches_hand_composition(self):
        from berknash import SoftPlanConfig, soft_best_response

        m, cs = benchmark3()
        k = 0
        pi, _, _ = soft_best_response(
            m.with_kernel(cs.members[k].kernel), SoftPlanConfig(temperature=0.1)
        )
        d = state_action_frequencies(m, pi)
        expected = long_run_divergence(d, kl_cost_table(m, cs.members[k]))
        assert bilevel_objective(m, cs, k, 0.1) == pytest.approx(expected, abs=1e-12)
        assert expected > 0.0


class TestEntropyBNSelect:
    def test_tie_tolerance(self):
        assert equilibrium.TIE_TOL == 1e-9

    def test_true_model_selected_with_zero_objective(self):
        rng = np.random.default_rng(4)
        m = random_instance(rng)
        members = (
            mixture_kernel(m, 0.25),
            mixture_kernel(m, 0.5),
            SubjectiveKernel(kernel=m.kernel, label="truth"),
        )
        best, values = entropy_bn_select(m, ConjectureSet(members=members), 0.1)
        assert best == 2
        assert values[2] == 0.0

    def test_singleton(self):
        rng = np.random.default_rng(5)
        m = random_instance(rng)
        cs = ConjectureSet(members=(mixture_kernel(m, 0.3),))
        best, values = entropy_bn_select(m, cs, 0.1)
        assert best == 0
        assert values.shape == (1,)

    def test_benchmark_objective_strictly_increasing(self):
        m, cs = benchmark3()
        best, values = entropy_bn_select(m, cs, 0.1)
        assert best == 0
        assert np.all(np.diff(values) > 0)

    def test_selection_consistent_with_enumeration(self):
        m, cs = benchmark3()
        best, _ = entropy_bn_select(m, cs, 0.1)
        report = enumerate_equilibria(m, cs, temperature=0.1)
        assert best in [e.model_index for e in report.equilibria]


def test_divergence_vector_permutation_equivariant():
    m, cs = benchmark3()
    pi = best_response_policy(m.with_kernel(cs.members[0].kernel))
    d = state_action_frequencies(m, pi)
    divs = np.array([long_run_divergence(d, kl_cost_table(m, q)) for q in cs])
    perm = [2, 0, 3, 1]
    shuffled = ConjectureSet(members=tuple(cs.members[i] for i in perm))
    divs_shuffled = np.array(
        [long_run_divergence(d, kl_cost_table(m, q)) for q in shuffled]
    )
    np.testing.assert_array_equal(divs[perm], divs_shuffled)
