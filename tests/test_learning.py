import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berknash import (
    BanditConfig,
    ConjectureSet,
    MDPInstance,
    SoftPlanConfig,
    SubjectiveKernel,
    ZoomConfig,
    benchmark3,
    bilevel_objective,
    config_from_dict,
    exp3_update,
    kl_divergence,
    mixture_kernel,
    oracle_loss,
    rollout_loss,
    run_experiment,
    run_exp3,
    run_zoom_exp3,
    sampling_distribution,
    soft_best_response,
)
from berknash import learning
from berknash.learning import (
    ARM_BLOCK,
    ROLLOUT_STREAM,
    _arm_uniforms,
    _draw_arm,
    _round_rng,
    _zoom_step,
    resolve_loss_scale,
)
from _helpers import action1_family, action1_fixed_points


def two_cycle_instance():
    """Deterministic two-cycle kernel: with a uniform conjecture the per-entry
    KL cost is log(S) everywhere, so normalized oracle losses are exactly
    {0, 1} for the {truth, uniform} pair."""
    S = 3
    k0 = np.zeros((S, S))
    k1 = np.zeros((S, S))
    for x in range(S):
        k0[x, (x + 1) % S] = 1.0
        k1[x, (x + 2) % S] = 1.0
    kernel = np.stack([k0, k1], axis=1)
    rewards = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    m = MDPInstance(kernel=kernel, rewards=rewards, discount=0.9,
                    initial_dist=np.full(S, 1 / S))
    cs = ConjectureSet(
        members=(
            SubjectiveKernel(kernel=m.kernel, label="truth"),
            SubjectiveKernel(kernel=np.full((S, 2, S), 1 / S), label="noise"),
        )
    )
    return m, cs


class TestSamplingDistribution:
    def test_equal_weights_uniform(self):
        p = sampling_distribution(np.ones(5), 0.3)
        np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-15)

    def test_full_exploration_ignores_weights(self):
        p = sampling_distribution(np.array([10.0, 1.0, 0.1]), 1.0)
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-15)

    def test_pure_weight_mixture(self):
        p = sampling_distribution(np.array([2.0, 1.0, 1.0]), 0.0)
        np.testing.assert_allclose(p, [0.5, 0.25, 0.25], atol=1e-15)

    def test_exploration_floor_and_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            K = int(rng.integers(2, 8))
            w = rng.uniform(1e-6, 10.0, size=K)
            gamma = float(rng.uniform(0.01, 0.99))
            p = sampling_distribution(w, gamma)
            assert sum(p) == pytest.approx(1.0, abs=1e-12)
            assert min(p) >= gamma / K - 1e-15

    def test_rejects_nonpositive_weights(self):
        for w in ([1.0, 0.0], [1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError, match="strictly positive"):
                sampling_distribution(np.array(w), 0.1)


def _sampling_distribution_reference(weights, exploration):
    """The numpy form the list helper must reproduce bit for bit."""
    w = np.asarray(weights, dtype=float)
    return (1.0 - exploration) * w / w.sum() + exploration / w.size


def _exp3_update_reference(weights, arm, loss, prob, learning_rate):
    """The numpy form of the in-place update, on an array."""
    weights[arm] *= np.exp(-learning_rate * loss / prob)
    weights /= weights.max()
    np.maximum(weights, 1e-300, out=weights)


def test_sampling_distribution_matches_numpy_bit_for_bit():
    # K up to 300 covers the left-to-right, eight-sum and recursive branches
    # of numpy's pairwise summation
    rng = np.random.default_rng(7)
    for K in range(1, 301):
        for _ in range(5):
            w = rng.uniform(1e-3, 10.0, size=K) * 10.0 ** rng.integers(-6, 7, size=K)
            gamma = float(rng.uniform(0.001, 0.5))
            want = _sampling_distribution_reference(w, gamma).tolist()
            assert sampling_distribution(w.tolist(), gamma) == want, K


def test_exp3_update_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(8)
    for K in (1, 2, 4, 7, 8, 12, 30, 129):
        weights = [1.0] * K
        ref = np.ones(K)
        for _ in range(300):
            p = sampling_distribution(weights, 0.05)
            arm = int(rng.integers(K))
            loss, eta = float(rng.uniform()), float(rng.choice([0.05, 0.5, 5.0]))
            exp3_update(weights, arm, loss, p[arm], eta)
            _exp3_update_reference(ref, arm, loss, p[arm], eta)
            assert weights == ref.tolist(), K


class TestLossEstimation:
    def test_oracle_zero_for_true_model(self):
        m, cs = two_cycle_instance()
        pi, _, _ = soft_best_response(m, SoftPlanConfig(temperature=0.1))
        assert oracle_loss(m, cs.members[0], pi, loss_scale=math.log(3)) == 0.0

    def test_oracle_losses_ordered_by_misspecification(self):
        m, cs = benchmark3()
        soft = SoftPlanConfig(temperature=0.1)
        scale = resolve_loss_scale(m, cs.members, BanditConfig())
        losses = []
        for q in cs:
            pi, _, _ = soft_best_response(m.with_kernel(q.kernel), soft)
            losses.append(oracle_loss(m, q, pi, scale))
        assert losses == sorted(losses)
        assert losses[0] < losses[-1]

    def test_two_cycle_losses_are_zero_and_one(self):
        m, cs = two_cycle_instance()
        cfg = BanditConfig(horizon=10)
        scale = resolve_loss_scale(m, cs.members, cfg)
        assert scale == pytest.approx(math.log(3), abs=1e-12)
        pi, _, _ = soft_best_response(m, SoftPlanConfig(temperature=0.1))
        assert oracle_loss(m, cs.members[0], pi, scale) == 0.0
        assert oracle_loss(m, cs.members[1], pi, scale) == pytest.approx(1.0, abs=1e-12)

    def test_rollout_consistent_with_oracle(self):
        m, cs = benchmark3()
        q = cs.members[2]  # mid-range misspecification: plug-in bias is small
        pi, _, _ = soft_best_response(
            m.with_kernel(q.kernel), SoftPlanConfig(temperature=0.1)
        )
        cfg = BanditConfig(
            loss_estimator="rollout", rollout_horizon=100_000, loss_scale=1.0
        )
        rng = np.random.default_rng(123)
        est = rollout_loss(m, q, pi, cfg, 1.0, rng)
        exact = oracle_loss(m, q, pi, 1.0)
        assert est == pytest.approx(exact, rel=0.10)

    def test_rollout_mode_requires_scale(self):
        m, cs = two_cycle_instance()
        with pytest.raises(ValueError, match="loss_scale"):
            resolve_loss_scale(m, cs.members, BanditConfig(loss_estimator="rollout"))


def _rollout_loss_reference(m, q, pi, cfg, loss_scale, rng):
    """The per-step ``np.searchsorted`` walk, kept as the reference that
    ``rollout_loss`` must reproduce bit for bit from the same generator."""
    S, A = m.num_states, m.num_actions
    H = cfg.rollout_horizon
    burn_in = H // 10
    alpha = cfg.rollout_smoothing
    cum_pi = np.cumsum(np.asarray(pi, dtype=float), axis=1)
    cum_kernel = np.cumsum(m.kernel, axis=2)
    cum_init = np.cumsum(m.initial_dist)
    u = rng.random((H, 2))
    counts = np.zeros((S, A, S))
    x = min(int(np.searchsorted(cum_init, rng.random(), side="right")), S - 1)
    for t in range(H):
        a = min(int(np.searchsorted(cum_pi[x], u[t, 0], side="right")), A - 1)
        y = min(int(np.searchsorted(cum_kernel[x, a], u[t, 1], side="right")), S - 1)
        if t >= burn_in:
            counts[x, a, y] += 1.0
        x = y
    visits = counts.sum(axis=2)
    p_hat = (counts + alpha) / (visits + S * alpha)[:, :, None]
    Q = q.kernel
    Q = np.where(np.any(Q <= 0.0, axis=2, keepdims=True), (Q + alpha) / (1.0 + S * alpha), Q)
    div = float(np.sum(visits / visits.sum() * kl_divergence(p_hat, Q)))
    return min(max(div, 0.0), loss_scale) / loss_scale


def _rows_with_zero_tails(rng, shape):
    """Dirichlet rows; about a third put zero mass on their last entry and
    about a sixth are one-hot, so the inverse-CDF clip at the last index and
    flat cumulative tails are exercised."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    flat = rows.reshape(-1, shape[-1])
    for row in flat:
        kind = rng.integers(6)
        if kind < 2 and shape[-1] > 1:
            row[-1] = 0.0
            row /= row.sum()
        elif kind == 2:
            row[:] = np.eye(shape[-1])[rng.integers(shape[-1])]
    return rows


def _rollout_cases():
    """(instance, conjecture, policy) triples: benchmark3 under each member's
    soft best response, then random instances with S in 1..6 and 30."""
    m, cs = benchmark3()
    soft = SoftPlanConfig(temperature=0.1)
    for q in cs:
        pi, _, _ = soft_best_response(m.with_kernel(q.kernel), soft)
        yield m, q, pi
    rng = np.random.default_rng(2024)
    for S in (1, 2, 3, 4, 5, 6, 30):
        for A in (1, 2, 3, 4):
            kernel = _rows_with_zero_tails(rng, (S, A, S))
            m = MDPInstance(kernel=kernel, rewards=np.zeros((S, A)), discount=0.9,
                            initial_dist=_rows_with_zero_tails(rng, (S,)))
            q = SubjectiveKernel(kernel=_rows_with_zero_tails(rng, (S, A, S)), label="q")
            yield m, q, _rows_with_zero_tails(rng, (S, A))


@pytest.mark.parametrize("horizon", [1, 2, 11, 3000])
def test_rollout_loss_matches_searchsorted_reference(horizon):
    cfg = BanditConfig(loss_estimator="rollout", rollout_horizon=horizon, loss_scale=1e3)
    for t, (m, q, pi) in enumerate(_rollout_cases(), start=1):
        got = rollout_loss(m, q, pi, cfg, 1e3, _round_rng(11, t, ROLLOUT_STREAM))
        want = _rollout_loss_reference(m, q, pi, cfg, 1e3, _round_rng(11, t, ROLLOUT_STREAM))
        assert got == want, (t, m.num_states, m.num_actions)


class _FixedUniforms:
    """Stands in for the generator: ``random((H, 2))`` returns ``u``, and
    ``random()`` the largest float below 1."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u.copy() if size is not None else np.nextafter(1.0, 0.0)


def test_rollout_loss_clips_and_breaks_ties_like_searchsorted():
    # cumsum([0.7, 0.1, 0.1, 0.1]) ends at 1 - 2**-53, so the largest
    # uniform lands past every entry and must be clipped to the last index;
    # a uniform equal to an entry (0.7) must fall to its right. Action a
    # rolls the row by a, and the conjecture is the true kernel, so the loss
    # depends on which action each step draws; the rolled rows of actions
    # 0-2 still sum to below 1, so the clip stays covered.
    row = [0.7, 0.1, 0.1, 0.1]
    kernel = np.array([[np.roll(row, a) for a in range(4)]] * 4)
    m = MDPInstance(kernel=kernel, rewards=np.zeros((4, 4)), discount=0.9, initial_dist=row)
    q = SubjectiveKernel(kernel=kernel, label="true")
    pi = np.tile(row, (4, 1))
    u = np.random.default_rng(5).random((40, 2))
    u[::3] = np.nextafter(1.0, 0.0)
    u[1::3] = 0.7
    cfg = BanditConfig(loss_estimator="rollout", rollout_horizon=40, loss_scale=1e3)
    got = rollout_loss(m, q, pi, cfg, 1e3, _FixedUniforms(u))
    assert got == _rollout_loss_reference(m, q, pi, cfg, 1e3, _FixedUniforms(u))


@st.composite
def _rollout_walks(draw):
    """A small instance whose rows come from a pool of two or three per row
    length, with integer weights 0..3: cut points repeat across states, and
    zero-probability actions and one-hot rows are common. Some kernel rows
    stay put instead: a self-loop of 0.998, as benchmark3's rows have, or an
    absorbing one, so that the walk makes long sojourns. About half of the
    uniforms sit exactly on a cut point below 1."""
    S, A, H = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 60))

    def pool(n):
        weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
        return [np.array(w) / sum(w) for w in draw(st.lists(weights, min_size=2, max_size=3))]

    def rows(n, count):
        choices = pool(n)
        return np.array([choices[i] for i in draw(
            st.lists(st.integers(0, len(choices) - 1), min_size=count, max_size=count))])

    kernel = rows(S, S * A).reshape(S, A, S)
    for x, a in np.ndindex(S, A):
        stay = draw(st.sampled_from([None, None, 0.998, 1.0]))
        if stay is not None:
            kernel[x, a] = np.full(S, (1.0 - stay) / max(S - 1, 1))
            kernel[x, a, x] = stay if S > 1 else 1.0
    m = MDPInstance(kernel=kernel, rewards=np.zeros((S, A)), discount=0.9,
                    initial_dist=rows(S, 1)[0])
    q = SubjectiveKernel(kernel=rows(S, S * A).reshape(S, A, S), label="q")
    pi = rows(A, S)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def uniforms(cums):
        u = rng.random(H)
        cuts = cums[cums < 1.0]
        if cuts.size:
            on_cut = rng.random(H) < 0.5
            u[on_cut] = rng.choice(cuts, size=on_cut.sum())
        return u

    u = np.column_stack([uniforms(np.cumsum(pi, axis=1)), uniforms(np.cumsum(kernel, axis=2))])
    return m, q, pi, u


@settings(max_examples=150, deadline=None)
@given(_rollout_walks())
def test_rollout_loss_matches_reference_on_shared_cuts(case):
    m, q, pi, u = case
    cfg = BanditConfig(loss_estimator="rollout", rollout_horizon=len(u), loss_scale=1e3)
    got = rollout_loss(m, q, pi, cfg, 1e3, _FixedUniforms(u))
    assert got == _rollout_loss_reference(m, q, pi, cfg, 1e3, _FixedUniforms(u))


@settings(max_examples=150, deadline=None)
@given(_rollout_walks(), st.integers(1, 8))
def test_rollout_loss_matches_reference_across_blocks(case, block):
    # blocks of 1..8 steps, so that sojourns and leaves fall on every block
    # boundary of a horizon up to 60
    m, q, pi, u = case
    cfg = BanditConfig(loss_estimator="rollout", rollout_horizon=len(u), loss_scale=1e3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "ROLLOUT_BLOCK", block)
        got = rollout_loss(m, q, pi, cfg, 1e3, _FixedUniforms(u))
    assert got == _rollout_loss_reference(m, q, pi, cfg, 1e3, _FixedUniforms(u))


def test_rollout_memory_stays_flat_in_the_horizon():
    # the leave masks take S bytes a step of one block: over three blocks a
    # dense 30-state chain peaks near 63 bytes a step, where masks held over
    # the whole horizon would add 30
    rng = np.random.default_rng(30)
    S, A = 30, 4
    m = MDPInstance(kernel=rng.dirichlet(np.ones(S), size=(S, A)), rewards=np.zeros((S, A)),
                    discount=0.9, initial_dist=np.full(S, 1 / S))
    q = SubjectiveKernel(kernel=rng.dirichlet(np.ones(S), size=(S, A)), label="q")
    H = 3 * learning.ROLLOUT_BLOCK + 1000
    cfg = BanditConfig(loss_estimator="rollout", rollout_horizon=H, loss_scale=1.0)
    tracemalloc.start()
    try:
        rollout_loss(m, q, rng.dirichlet(np.ones(A), size=S), cfg, 1.0, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 75 * H


def test_rollout_memory_stays_flat_on_a_long_benchmark3_chain():
    # twenty blocks: past the uniforms' 16 bytes a step, a call holds one
    # block's actions, masks and counting buffers, not arrays of the horizon
    m, cs = benchmark3()
    q = cs.members[2]
    pi, _, _ = soft_best_response(m.with_kernel(q.kernel), SoftPlanConfig(temperature=0.1))
    H = 20 * learning.ROLLOUT_BLOCK
    cfg = BanditConfig(loss_estimator="rollout", rollout_horizon=H, loss_scale=1.0)
    tracemalloc.start()
    try:
        rollout_loss(m, q, pi, cfg, 1.0, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * H


# one to five 32-bit words, so the entropy is shorter than, as long as and
# longer than numpy's pool of four
ARM_SEEDS = [0, 5, 11, 2**32 - 1, 2**32, 2**40, 2**64 + 5, 2**96 + 7, 2**130 + 3]


@pytest.mark.parametrize("seed", ARM_SEEDS)
def test_arm_uniforms_match_per_round_generators(seed):
    want = [np.random.default_rng(np.random.SeedSequence([seed, t, 0])).random()
            for t in range(1, ARM_BLOCK + 2)]
    for horizon in (1, 1500, ARM_BLOCK - 1, ARM_BLOCK, ARM_BLOCK + 1):
        assert list(_arm_uniforms(seed, horizon)) == want[:horizon]


def test_arm_uniforms_memory_stays_flat_in_the_horizon():
    # the draws are computed ARM_BLOCK rounds at a time, so consuming three
    # blocks never holds more than one block's arrays and integers
    tracemalloc.start()
    try:
        for _ in _arm_uniforms(11, 3 * ARM_BLOCK):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_draw_arm_matches_generator_choice():
    rng = np.random.default_rng(3)
    for i in range(2000):
        K = (1, 4, 12)[i % 3]
        p = rng.dirichlet(np.full(K, rng.choice([0.1, 1.0, 10.0])))
        want = np.random.default_rng(i).choice(K, p=p)
        assert _draw_arm(p.tolist(), np.random.default_rng(i).random()) == want, (i, p)


@pytest.mark.parametrize("p", [[-0.1, 1.1], [0.5, 0.4], [0.5, 0.5 + 1e-6], [1.0, math.nan]])
def test_draw_arm_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError, match="(?i)probabilities"):
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError, match="probabilities"):
        _draw_arm(p, 0.5)


def test_draw_arm_accepts_a_sum_within_choice_tolerance():
    near = [0.5, 0.5 + 1e-9]
    want = np.random.default_rng(0).choice(2, p=near)
    assert _draw_arm(near, np.random.default_rng(0).random()) == want


class TestExp3Update:
    def test_zero_loss_leaves_weights(self):
        weights = np.ones(3)
        exp3_update(weights, 1, 0.0, 0.4, learning_rate=1.0)
        np.testing.assert_array_equal(weights, np.ones(3))

    def test_hand_computed_update(self):
        weights = np.ones(2)
        p = sampling_distribution(weights, 0.0)
        exp3_update(weights, 0, 0.5, float(p[0]), learning_rate=1.0)
        np.testing.assert_allclose(weights, [math.exp(-1.0), 1.0], atol=1e-15)

    def test_importance_weighted_estimator_unbiased(self):
        # exhaustive expectation over the K-outcome sample space
        rng = np.random.default_rng(1)
        for K in (2, 3, 4):
            p = rng.dirichlet(np.ones(K))
            losses = rng.uniform(0.0, 1.0, size=K)
            for j in range(K):
                expectation = sum(
                    p[k] * (losses[k] / p[k] if k == j else 0.0) for k in range(K)
                )
                assert expectation == pytest.approx(losses[j], abs=1e-12)

    def test_renormalization_leaves_sampling_law_invariant(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.1, 5.0, size=4)
        p1 = sampling_distribution(w, 0.2)
        p2 = sampling_distribution(w * 37.5, 0.2)
        np.testing.assert_allclose(p1, p2, atol=1e-14)

    def test_requires_positive_probability(self):
        for prob in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive probability"):
                exp3_update(np.ones(2), 0, 0.5, prob, learning_rate=0.1)
        for loss in (math.nan, math.inf, -math.inf):
            weights = np.ones(2)
            with pytest.raises(ValueError, match="loss must be finite"):
                exp3_update(weights, 0, loss, 0.5, learning_rate=0.1)
            np.testing.assert_array_equal(weights, np.ones(2))

    def test_weights_stay_strictly_positive_under_heavy_suppression(self):
        weights = np.ones(2)
        for _ in range(50):
            exp3_update(weights, 1, 1.0, 0.01, learning_rate=1.0)
        assert np.all(weights > 0.0)


def count_planning(monkeypatch):
    """Record the kernel of every soft best response the learners compute."""
    planned = []

    def counting(m, soft_cfg):
        planned.append(m.kernel)
        return soft_best_response(m, soft_cfg)

    monkeypatch.setattr(learning, "soft_best_response", counting)
    return planned


class TestRunExp3:
    def test_single_arm_always_selected(self):
        m, cs = two_cycle_instance()
        solo = ConjectureSet(members=(cs.members[0],))
        cfg = BanditConfig(horizon=50, rng_seed=0)
        rec = run_exp3(m, solo, cfg, SoftPlanConfig(temperature=0.1))
        assert rec.selection_frequencies[0] == 1.0

    def test_two_arm_separation(self):
        m, cs = two_cycle_instance()
        cfg = BanditConfig(
            learning_rate=0.05, exploration=0.1, horizon=2000, rng_seed=0
        )
        rec = run_exp3(m, cs, cfg, SoftPlanConfig(temperature=0.1))
        np.testing.assert_allclose(rec.oracle_losses, [0.0, 1.0], atol=1e-12)
        assert np.mean(rec.arms[-400:] == 0) >= 0.9

    def test_trace_is_bit_reproducible(self):
        m, cs = benchmark3()
        cfg = BanditConfig(horizon=200, rng_seed=5)
        soft = SoftPlanConfig(temperature=0.1)
        rec1 = run_exp3(m, cs, cfg, soft)
        rec2 = run_exp3(m, cs, cfg, soft)
        np.testing.assert_array_equal(rec1.arms, rec2.arms)
        np.testing.assert_array_equal(rec1.losses, rec2.losses)
        np.testing.assert_array_equal(rec1.probs, rec2.probs)

    def test_regret_accounting(self):
        m, cs = two_cycle_instance()
        cfg = BanditConfig(learning_rate=0.05, exploration=0.2, horizon=100, rng_seed=3)
        rec = run_exp3(m, cs, cfg, SoftPlanConfig(temperature=0.1))
        expected = np.cumsum(rec.oracle_losses[rec.arms]) - 0.0
        np.testing.assert_allclose(rec.regret, expected, atol=1e-12)
        assert np.all(np.diff(rec.regret) >= -1e-12)

    def test_plans_each_member_once(self, monkeypatch):
        m, cs = benchmark3()
        planned = count_planning(monkeypatch)
        run_exp3(m, cs, BanditConfig(), SoftPlanConfig(temperature=0.1))
        assert len(planned) == len(cs) == 4

    def test_builds_each_pulled_arms_walk_tables_once(self, tmp_path, monkeypatch):
        # the rollout case study at seed 11 (the bench3-rollout config) pulls
        # the four members (19, 10, 6, 5) times
        built, pulled = [], Counter()
        build, rollout = learning._rollout_tables, learning.rollout_loss

        def counting_build(m, q, *args):
            built.append(q.label)
            return build(m, q, *args)

        def counting_rollout(m, q, *args):
            pulled[q.label] += 1
            return rollout(m, q, *args)

        monkeypatch.setattr(learning, "_rollout_tables", counting_build)
        monkeypatch.setattr(learning, "rollout_loss", counting_rollout)
        bandit = {"loss_estimator": "rollout", "loss_scale": 0.5, "horizon": 40,
                  "learning_rate": 0.1, "exploration": 0.1}
        run_experiment(config_from_dict({"experiment": "case-study", "seed": 11,
                                         "bandit": bandit, "output_dir": str(tmp_path)}))
        labels = [q.label for q in benchmark3()[1]]
        assert tuple(pulled[label] for label in labels) == (19, 10, 6, 5)
        assert built == list(pulled)

    def test_counts_sum_to_horizon(self):
        m, cs = benchmark3()
        cfg = BanditConfig(horizon=150, rng_seed=9)
        rec = run_exp3(m, cs, cfg, SoftPlanConfig(temperature=0.1))
        counts = np.bincount(rec.arms, minlength=len(cs))
        assert counts.size == len(cs) and counts.sum() == 150
        np.testing.assert_allclose(rec.selection_frequencies, counts / 150, atol=1e-15)


class TestConfigValidation:
    def test_exploration_range(self):
        with pytest.raises(ValueError, match="exploration"):
            BanditConfig(exploration=1.5)
        with pytest.raises(ValueError, match="exploration"):
            BanditConfig(exploration=0.0)

    def test_positive_learning_rate_and_horizon(self):
        with pytest.raises(ValueError, match="learning_rate"):
            BanditConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="horizon"):
            BanditConfig(horizon=0)

    def test_rng_seed_non_negative(self):
        with pytest.raises(ValueError, match="rng_seed"):
            BanditConfig(rng_seed=-1)

    def test_estimator_name(self):
        with pytest.raises(ValueError, match="loss_estimator"):
            BanditConfig(loss_estimator="monte-carlo")

    def test_zoom_schedules(self):
        with pytest.raises(ValueError, match="alpha_decay"):
            ZoomConfig(alpha_decay=1.5)
        with pytest.raises(ValueError, match="grid_size"):
            ZoomConfig(grid_size=1)
        with pytest.raises(ValueError, match="bounds"):
            ZoomConfig(bounds=(0.5, 0.5))

    def test_zoom_schedule_values(self):
        z = ZoomConfig()
        assert z.alpha(0) == pytest.approx(0.1)
        assert z.alpha(100) == pytest.approx(0.08)
        assert z.rho(250) == pytest.approx(0.1 * 0.5**2)
        assert z.delta(500) == pytest.approx(0.02)


def zoom_once(params, counts, means, **zoom):
    """The event of one zoom step at t = 1, where every schedule is at its
    initial value; each arm's uncertainty is uncertainty_scale/sqrt(count)."""
    cfg = ZoomConfig(zoom_interval=1000, **zoom)
    *_, event = _zoom_step(1, list(params), [1.0] * len(params), list(counts), list(means), cfg)
    return event


class TestPrune:
    # counts of 4 give uncertainty 0.5, and 10**4 give 0.01, at scale 1

    def test_suboptimal_rule(self):
        ev = zoom_once([0.0, 0.1], [4, 4], [0.1, 0.5], alpha0=0.2, delta0=0.05)
        assert ev.kept == (0.0,)
        assert ev.pruned == ((0.1, "suboptimal"),)

    def test_converged_rule(self):
        ev = zoom_once([0.0, 0.1], [4, 10**4], [0.1, 0.12], alpha0=0.2, delta0=0.05)
        assert ev.kept == (0.0,)
        assert ev.pruned == ((0.1, "converged"),)

    def test_nothing_pruned_when_all_close_and_uncertain(self):
        ev = zoom_once([0.0, 0.1, 0.2], [4, 4, 4], [0.1, 0.15, 0.2], alpha0=0.2, delta0=0.05)
        assert ev.kept == (0.0, 0.1, 0.2)
        assert ev.pruned == ()

    def test_incumbent_never_pruned_even_when_converged(self):
        ev = zoom_once([0.0, 0.1], [10**4, 4], [0.1, 0.3], alpha0=0.1, delta0=0.05)
        assert ev.incumbent_param == 0.0
        assert ev.kept == (0.0,)
        assert ev.pruned == ((0.1, "suboptimal"),)

    def test_uncertainty_formula(self):
        # at scale 2, counts 1, 4, 5, 100 and 101 give uncertainties 2, 1,
        # 0.894, 0.2 and 0.199: an arm converges once it falls below delta;
        # the never-pulled last arm is kept whatever its prior mean
        params, counts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], [1, 4, 5, 100, 101, 0]
        for delta, converged in ((1.0, [0.2, 0.3, 0.4]), (0.2, [0.4])):
            ev = zoom_once(params, counts, [0.1] * 5 + [0.9], alpha0=0.2, delta0=delta,
                           uncertainty_scale=2.0)
            assert ev.pruned == tuple((p, "converged") for p in converged)
            assert ev.kept == tuple(p for p in params if p not in converged)


class TestRefine:
    # a lone arm pulled 4 times is the incumbent and, at uncertainty 0.5,
    # the refinement center; its own grid point is already in the set

    def test_basic_grid(self):
        ev = zoom_once([0.1], [4], [0.1], rho0=0.05, grid_size=3, bounds=(0.0, 0.5))
        np.testing.assert_allclose(ev.added, [0.05, 0.15], atol=1e-15)

    def test_boundary_clipping(self):
        # the points 0.05 and 0.1 lie exactly rho/2 = 0.05 apart, and are kept
        ev = zoom_once([0.0], [4], [0.1], rho0=0.1, grid_size=3, bounds=(0.0, 0.5))
        np.testing.assert_allclose(ev.added, [0.05, 0.1], atol=1e-15)

    def test_duplicates_dropped(self):
        ev = zoom_once([0.1, 0.05], [4, 4], [0.1, 0.12], rho0=0.05, grid_size=3,
                       bounds=(0.0, 0.5))
        assert ev.kept == (0.1, 0.05)
        np.testing.assert_allclose(ev.added, [0.15], atol=1e-15)

    def test_never_leaves_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            center = float(rng.uniform(0.0, 0.5))
            radius = float(rng.uniform(0.01, 0.3))
            ev = zoom_once([center], [4], [0.1], rho0=radius, grid_size=5, bounds=(0.0, 0.5))
            assert ev.added and all(0.0 <= p <= 0.5 for p in ev.added)

    @staticmethod
    def _added_reference(kept, center, rho, grid_size, bounds):
        """The refinement rule as stated: each point against every kept
        parameter and every earlier point seen or added."""
        lo, hi = bounds
        seen, added, tol = list(kept), [], learning.DEDUPE_REL_TOL * (hi - lo)
        grid = np.linspace(max(lo, center - rho), min(hi, center + rho), grid_size).tolist()
        for point in grid:
            if all(abs(point - q) > tol for q in seen):
                seen.append(point)
                if all(abs(point - q) >= 0.5 * rho for q in kept + added):
                    added.append(point)
        return added

    def test_matches_comparisons_with_every_earlier_point(self):
        # kept arms on grid points, within the dedupe tolerance of them and
        # anywhere; radii down to below the tolerance; centers outside the
        # bounds, where the grid runs downwards
        rng = np.random.default_rng(22)
        for _ in range(400):
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2)).tolist()
            center = float(rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo)))
            rho = (hi - lo) * 10.0 ** -rng.uniform(0.0, 10.0)
            grid_size = int(rng.integers(2, 40))
            grid = np.linspace(max(lo, center - rho), min(hi, center + rho), grid_size)
            tol = learning.DEDUPE_REL_TOL * (hi - lo)
            kept = [center]
            for _ in range(int(rng.integers(0, 6))):
                near = float(rng.choice(grid)) + tol * float(rng.choice([0.0, -1.0, 0.5, 1.0, 2.0]))
                kept.append(near if rng.random() < 0.7 else float(rng.uniform(lo, hi)))
            counts, means = [4] * len(kept), [0.05] + [0.1] * (len(kept) - 1)
            ev = zoom_once(kept, counts, means, rho0=rho, grid_size=grid_size, bounds=(lo, hi))
            assert list(ev.added) == self._added_reference(kept, center, rho, grid_size, (lo, hi))

    def test_large_grid_is_refined_in_sorted_order(self):
        # each of 2 * 10**4 points is compared with four others; comparing it
        # with every earlier point takes 12-16 s
        start = time.perf_counter()
        ev = zoom_once([0.1, 0.3], [4, 4], [0.1, 0.12], rho0=0.1, grid_size=20_000,
                       bounds=(0.0, 0.5))
        assert time.perf_counter() - start < 1.0
        # 0.0, then the first point at least rho/2 from it and from 0.1
        np.testing.assert_allclose(ev.added, [0.0, 0.15], atol=1e-4)


class TestRunZoomExp3:
    def _setup(self):
        m, _ = benchmark3()
        return m, (lambda e: mixture_kernel(m, float(e)))

    @pytest.mark.parametrize("estimator", ["oracle", "rollout"])
    def test_no_zoom_event_matches_plain_exp3(self, estimator):
        from berknash import mixture_family

        m, family = self._setup()
        eps = [0.05, 0.15, 0.30, 0.45]
        if estimator == "oracle":
            cfg = BanditConfig(horizon=60, rng_seed=2)
        else:
            cfg = BanditConfig(horizon=60, rng_seed=2, loss_estimator="rollout",
                               rollout_horizon=300, loss_scale=0.5)
        soft = SoftPlanConfig(temperature=0.1)
        zoom = ZoomConfig(zoom_interval=1000)  # never triggers within T=60
        zrec = run_zoom_exp3(m, family, eps, cfg, zoom, soft)
        rec = run_exp3(m, mixture_family(m, eps), cfg, soft)
        np.testing.assert_allclose(
            zrec.selected_params, [eps[a] for a in rec.arms], atol=1e-15
        )
        np.testing.assert_array_equal(zrec.losses, rec.losses)
        np.testing.assert_array_equal(zrec.probs, rec.probs)
        np.testing.assert_array_equal(zrec.running_mean, rec.running_mean)
        assert zrec.events == ()
        assert np.all((rec.losses >= 0.0) & (rec.losses <= 1.0))

    def test_rejects_initial_params_outside_the_bounds(self):
        m, family = self._setup()
        with pytest.raises(ValueError, match=r"\[0\.9\].*zoom bounds"):
            run_zoom_exp3(m, family, [0.2, 0.9], BanditConfig(horizon=5),
                          ZoomConfig(bounds=(0.0, 0.5)), SoftPlanConfig(temperature=0.1))

    def test_zoom_run_invariants(self):
        m, family = self._setup()
        cfg = BanditConfig(horizon=800, rng_seed=11)
        rec = run_zoom_exp3(
            m, family, list(np.linspace(0, 0.5, 6)), cfg, ZoomConfig(),
            SoftPlanConfig(temperature=0.1),
        )
        assert len(rec.final_params) >= 1
        assert np.all(rec.set_sizes >= 1)
        fp = np.array(rec.final_params)
        assert np.all((fp >= 0.0) & (fp <= 0.5))
        for ev in rec.events:
            assert any(abs(kp - ev.incumbent_param) < 1e-15 for kp in ev.kept)
            for param, reason in ev.pruned:
                assert reason in ("suboptimal", "converged")

    def test_concentrates_near_true_model(self):
        m, family = self._setup()
        cfg = BanditConfig(horizon=1500, rng_seed=11)
        rec = run_zoom_exp3(
            m, family, list(np.linspace(0, 0.5, 6)), cfg, ZoomConfig(),
            SoftPlanConfig(temperature=0.1),
        )
        assert float(np.median(rec.selected_params[-150:])) <= 0.05
        # running average does not rise across zoom boundaries (noise band)
        rm = rec.running_mean
        boundary = [ev.t - 1 for ev in rec.events]
        for i in range(len(boundary) - 1):
            assert rm[boundary[i + 1]] <= rm[boundary[i]] + 0.02

    @staticmethod
    def _action1_limit(m, temperature):
        """Median pull of the last 150 rounds of a seed-11 zooming run over the
        action-1 family, and the spacing of the grid those rounds refine."""
        cfg, zoom = BanditConfig(horizon=1500, rng_seed=11), ZoomConfig(bounds=(0.0, 1.0))
        rec = run_zoom_exp3(
            m, lambda theta: action1_family(m, [theta]).members[0],
            np.linspace(0.0, 1.0, 6).tolist(), cfg, zoom, SoftPlanConfig(temperature),
        )
        return float(np.median(rec.selected_params[-150:])), zoom.rho(cfg.horizon - 150)

    def test_action1_family_limit_is_own_data_argmin(self):
        # the learner minimizes theta -> D(d(pi_theta), theta); at lambda = 0.1
        # its argmin, 0.0626, is not an equilibrium: the soft one is 0.4452
        m, _ = benchmark3()
        limit, spacing = self._action1_limit(m, 0.1)

        def own(theta):
            return bilevel_objective(m, action1_family(m, [theta]), 0, 0.1)

        # golden-section search around the best point of a coarse scan
        grid = np.linspace(0.0, 1.0, 21)
        best = int(np.argmin([own(theta) for theta in grid]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, 20)]
        shrink = (math.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > 1e-8:
            a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
            lo, hi = (lo, b) if own(a) < own(b) else (a, hi)
        assert limit == pytest.approx(0.5 * (lo + hi), abs=spacing)
        [theta_star] = action1_fixed_points(m, 0.1)
        assert abs(limit - theta_star) > 0.3

    def test_action1_family_limit_is_equilibrium_at_low_temperature(self):
        m, _ = benchmark3()
        limit, spacing = self._action1_limit(m, 0.01)
        [theta_star] = action1_fixed_points(m, 0.01)
        assert limit == pytest.approx(theta_star, abs=spacing)

    # (events, suboptimal prunes, converged prunes, added arms, final set size,
    # never-pulled final arms) of seed-11 runs from the six-point initial grid:
    # the default zooming pipeline; a schedule whose delta0 = 0.2 at
    # uncertainty_scale 0.5 prunes arms as converged after 7 pulls; and the
    # default schedule run on to t = 8000. In the last two, rho falls below
    # the resolution floor DEDUPE_REL_TOL * (hi - lo) = 7.45e-9 (from t = 360
    # and t = 2400), after which no point is added and the set only shrinks.
    @pytest.mark.parametrize(
        "horizon, zoom, expected",
        [
            (1500, {}, (15, 9, 0, 16, 13, 1)),
            (600, {"zoom_interval": 15, "alpha0": 0.3, "delta0": 0.2, "uncertainty_scale": 0.5},
             (40, 6, 43, 44, 1, 0)),
            (8000, {}, (80, 20, 0, 23, 9, 0)),
        ],
        ids=["default", "converged-prunes", "tiny-rho"],
    )
    def test_frozen_zoom_counts(self, horizon, zoom, expected):
        m, family = self._setup()
        rec = run_zoom_exp3(
            m, family, list(np.linspace(0, 0.5, 6)), BanditConfig(horizon=horizon, rng_seed=11),
            ZoomConfig(**zoom), SoftPlanConfig(temperature=0.1),
        )
        reasons = [why for ev in rec.events for _, why in ev.pruned]
        assert (
            len(rec.events), reasons.count("suboptimal"), reasons.count("converged"),
            sum(len(ev.added) for ev in rec.events), len(rec.final_params),
            int(np.sum(rec.final_counts == 0)),
        ) == expected
        sizes = rec.set_sizes.tolist() + [len(rec.final_params)]
        for ev in rec.events:
            assert len(ev.kept) + len(ev.pruned) == sizes[ev.t - 1]
            assert len(ev.kept) + len(ev.added) == sizes[ev.t]

    def test_plans_initial_arms_and_pulled_added_arms_once(self, monkeypatch):
        # the six initial arms are planned up front; an added arm is planned
        # on its first pull, so the one added arm never pulled costs nothing
        m, family = self._setup()
        initial = np.linspace(0, 0.5, 6).tolist()
        planned = count_planning(monkeypatch)
        rec = run_zoom_exp3(m, family, initial, BanditConfig(horizon=1500, rng_seed=11),
                            ZoomConfig(), SoftPlanConfig(temperature=0.1))
        added = {p for ev in rec.events for p in ev.added}
        pulled_added = added & set(rec.selected_params.tolist())
        assert (len(added), len(pulled_added)) == (16, 15)
        assert len(planned) == len(initial) + len(pulled_added) == 21

    def test_final_arms_lie_apart_by_the_resolution_floor(self):
        # long after rho/2 has fallen below float resolution of the bounds, no
        # two arms are twins nearer than sqrt(eps) * (hi - lo)
        m, family = self._setup()
        zoom = ZoomConfig()
        rec = run_zoom_exp3(
            m, family, list(np.linspace(0, 0.5, 6)), BanditConfig(horizon=8000, rng_seed=11),
            zoom, SoftPlanConfig(temperature=0.1),
        )
        lo, hi = zoom.bounds
        assert np.diff(np.sort(rec.final_params)).min() > math.sqrt(np.finfo(float).eps) * (hi - lo)

    def test_empty_initial_set_rejected(self):
        m, family = self._setup()
        with pytest.raises(ValueError, match="nonempty"):
            run_zoom_exp3(m, family, [], BanditConfig(horizon=10), ZoomConfig(),
                          SoftPlanConfig(temperature=0.1))
