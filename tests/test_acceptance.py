"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted exactly as stated, including runtime caps.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from berknash import (
    BanditConfig,
    ConjectureSet,
    MDPInstance,
    SoftPlanConfig,
    SubjectiveKernel,
    ZoomConfig,
    benchmark3,
    best_response_policy,
    bilevel_objective,
    check_joint_feasibility,
    config_from_dict,
    entropy_bn_select,
    enumerate_equilibria,
    greedy_sets,
    kl_cost_table,
    kl_divergence,
    long_run_divergence,
    mixture_family,
    mixture_kernel,
    policy_from_occupation,
    run_experiment,
    run_exp3,
    run_zoom_exp3,
    simplex_solve,
    soft_bellman_operator,
    soft_value_iteration,
    state_action_frequencies,
    stationary_distribution,
    value_iteration,
)
from berknash.cli import main as cli_main
from berknash.planning import backup_values, build_dual_lp, build_primal_lp
from berknash.soft_planning import soft_best_response as _sbr
from _helpers import power_iteration_stationary, random_instance

# Frozen regression baseline for criterion 9: per-arm pull counts of the
# benchmark case study at the frozen seed (defaults: learning_rate=0.5,
# exploration=0.0125, horizon=1500, rng_seed=11). Counts are exact integers,
# so reproduction is byte-identical.
FROZEN_CASE_STUDY_COUNTS = (1470, 17, 8, 5)
FROZEN_CASE_STUDY_SEED = 11
# The same case study in rollout mode, run through `berknash run` with
# loss_scale=0.5, horizon=40, learning_rate=0.1, exploration=0.1 and the
# default rollout_horizon (the `bench3-rollout` benchmark config).
FROZEN_ROLLOUT_COUNTS = (19, 10, 6, 5)
# Both case studies at a seed of two 32-bit words, which runs the multi-word
# path of the batched arm draws end to end.
FROZEN_MULTIWORD_SEED = 2**32 + 3
FROZEN_MULTIWORD_COUNTS = (1470, 16, 9, 5)
FROZEN_MULTIWORD_ROLLOUT_COUNTS = (13, 12, 8, 7)


def _finish(n, name, start, limit, problems):
    elapsed = time.perf_counter() - start
    if elapsed > limit:
        problems.append(f"runtime {elapsed:.1f}s exceeds {limit}s")
    status = "FAIL" if problems else "PASS"
    print(f"criterion {n:2d} ({name}): {status} ({elapsed:.1f}s)")
    assert not problems, f"criterion {n}: " + "; ".join(problems)


@pytest.fixture(scope="module")
def bench():
    return benchmark3()


@pytest.fixture(scope="module")
def case_study_record(bench):
    m, cs = bench
    cfg = BanditConfig(rng_seed=FROZEN_CASE_STUDY_SEED)
    return run_exp3(m, cs, cfg, SoftPlanConfig(temperature=0.1))


def test_criterion_1_soft_contraction():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1001)
    checked = 0
    for beta in (0.5, 0.9, 0.95):
        for _ in range(334):
            S = int(rng.integers(2, 5))
            A = int(rng.integers(2, 4))
            m = random_instance(rng, S, A, discount=beta)
            lam = float(rng.uniform(0.01, 2.0))
            v1 = rng.normal(scale=5.0, size=S)
            v2 = rng.normal(scale=5.0, size=S)
            lhs = np.abs(
                soft_bellman_operator(m, lam, v1) - soft_bellman_operator(m, lam, v2)
            ).max()
            if lhs > beta * np.abs(v1 - v2).max():
                problems.append(f"violation at beta={beta}: {lhs}")
                break
            checked += 1
    if checked < 1000:
        problems.append(f"only {checked} triples checked")
    _finish(1, "soft Bellman contraction", start, 5.0, problems)


def test_criterion_2_soft_hard_sandwich():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1002)
    for _ in range(50):
        for lam in (1e-3, 0.1):
            S = int(rng.integers(2, 5))
            A = int(rng.integers(2, 4))
            m = random_instance(rng, S, A, discount=0.9)
            v_soft, _ = soft_value_iteration(m, SoftPlanConfig(temperature=lam))
            v_hard = value_iteration(m)
            bound = lam * math.log(A) / (1.0 - 0.9)
            gap = np.abs(v_soft - v_hard).max()
            if gap > bound:
                problems.append(f"sandwich broken: gap={gap} bound={bound}")
    matched = 0
    attempts = 0
    while matched < 25 and attempts < 200:
        attempts += 1
        m = random_instance(rng, 3, 2, discount=0.9)
        q = backup_values(m, value_iteration(m))
        if np.min(np.abs(q[:, 0] - q[:, 1])) < 1e-3:
            continue  # argmax not clearly unique
        pi_soft, _, _ = _sbr(m, SoftPlanConfig(temperature=1e-6))
        pi_hard = best_response_policy(m)
        tv = 0.5 * np.abs(pi_soft - pi_hard).sum(axis=1).max()
        if tv > 1e-3:
            problems.append(f"low-temperature mismatch: tv={tv}")
        matched += 1
    if matched < 25:
        problems.append("could not assemble unique-argmax instances")
    _finish(2, "soft-hard sandwich", start, 10.0, problems)


def test_criterion_3_lp_correctness():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1003)
    for i in range(200):
        S = int(rng.integers(2, 6))
        A = int(rng.integers(2, 5))
        m = random_instance(rng, S, A, discount=float(rng.uniform(0.6, 0.95)))
        v = value_iteration(m)
        primal = simplex_solve(build_primal_lp(m))
        dual = simplex_solve(build_dual_lp(m))
        if abs(primal.objective - v.sum()) > 1e-7:
            problems.append(f"[{i}] primal gap {abs(primal.objective - v.sum()):.2e}")
        if abs(dual.objective - float(m.initial_dist @ v)) > 1e-8:
            problems.append(f"[{i}] dual gap")
        lp = build_primal_lp(m)
        slack = lp.constraints @ primal.x - lp.rhs
        eta = dual.x.reshape(S, A)
        for x in range(S):
            for a in range(A):
                if eta[x, a] > 1e-8 and abs(slack[x * A + a]) > 1e-8:
                    problems.append(f"[{i}] slackness at ({x},{a})")
        pi = policy_from_occupation(eta)
        sets = greedy_sets(m, v)
        for x in range(S):
            if not set(np.flatnonzero(pi[x] > 1e-8).tolist()) <= set(sets[x].tolist()):
                problems.append(f"[{i}] occupation policy not greedy at state {x}")
        if problems:
            break
    _finish(3, "LP correctness and duality", start, 60.0, problems)


def test_criterion_4_stationarity():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1004)
    for i in range(200):
        n = int(rng.integers(2, 7))
        P = rng.dirichlet(np.ones(n), size=n)
        mu = stationary_distribution(P)
        if np.abs(mu @ P - mu).sum() > 1e-10:
            problems.append(f"[{i}] residual too large")
        oracle = power_iteration_stationary(P)
        if np.abs(mu - oracle).max() > 1e-8:
            problems.append(f"[{i}] disagrees with power iteration")
        if problems:
            break
    _finish(4, "stationary distributions", start, 5.0, problems)


def test_criterion_5_kl_properties():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1005)
    for i in range(1000):
        n = int(rng.integers(2, 7))
        nu = rng.dirichlet(np.ones(n))
        mu = rng.dirichlet(np.ones(n))
        val = kl_divergence(nu, mu)
        if val < 0.0:
            problems.append(f"[{i}] negative KL {val}")
        if np.abs(nu - mu).max() > 1e-6 and val <= 0.0:
            problems.append(f"[{i}] zero KL for distinct distributions")
        if kl_divergence(nu, nu) != 0.0:
            problems.append(f"[{i}] KL(nu, nu) != 0")
        if problems:
            break
    for i in range(100):
        m = random_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        lo, hi = np.sort(rng.uniform(0.01, 1.0, size=2))
        c_lo = kl_cost_table(m, mixture_kernel(m, float(lo)))
        c_hi = kl_cost_table(m, mixture_kernel(m, float(hi)))
        if np.any(c_lo > c_hi + 1e-12):
            problems.append(f"[{i}] mixture monotonicity broken")
            break
    _finish(5, "KL properties", start, 5.0, problems)


def test_criterion_6_joint_feasibility(bench, monkeypatch):
    start = time.perf_counter()
    problems = []
    m, cs = bench
    rng = np.random.default_rng(1006)

    cases = [(m, cs)]
    for _ in range(50):
        mi = random_instance(rng, 3, 2, discount=0.9)
        cases.append((mi, mixture_family(mi, [0.05, 0.15, 0.30, 0.45])))

    reference = None
    for mi, csi in cases:
        for mode, temp in (("hard", None), ("soft", 0.1)):
            report = enumerate_equilibria(mi, csi, temperature=temp)
            if not report.equilibria:
                problems.append(f"no equilibrium found in mode {mode}")
                continue
            for entry in report.equilibria:
                if not entry.feasibility.passed:
                    problems.append("reported equilibrium fails re-check")
                if max(entry.feasibility.residuals.values()) > 1e-7:
                    problems.append("equilibrium residual above 1e-7")
            if reference is None:
                e = report.equilibria[0]
                reference = (mi, csi, e.model_index, e.policy)
        if problems:
            break

    mi, csi, k, pi = reference
    # the reference is deterministic with two actions, so its flip is a
    # policy that is not optimal for model k
    rep = check_joint_feasibility(mi, csi, k, pi[:, ::-1])
    if rep.passed or "optimality" not in rep.failed_groups:
        problems.append("non-optimal policy not rejected by condition (iii)")

    d = state_action_frequencies(mi, pi)
    worst = int(np.argmax([long_run_divergence(d, kl_cost_table(mi, q)) for q in csi]))
    rep = check_joint_feasibility(mi, csi, worst, pi)
    if rep.passed or "kl_minimality" not in rep.failed_groups:
        problems.append("wrong-argmin perturbation not rejected by condition (iv)")

    def perturbed_frequencies(m_, pi_):
        d_bad = state_action_frequencies(m_, pi_)
        d_bad[0, 0] += 0.01
        return d_bad / d_bad.sum()

    monkeypatch.setattr("berknash.equilibrium.state_action_frequencies", perturbed_frequencies)
    rep = check_joint_feasibility(mi, csi, k, pi)
    if rep.passed or "true_frequency" not in rep.failed_groups:
        problems.append("d-flow perturbation not rejected by condition (ii)")
    _finish(6, "joint feasibility <-> equilibrium", start, 60.0, problems)


def test_criterion_7_true_model_recovery():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1007)
    for i in range(100):
        m = random_instance(rng, int(rng.integers(2, 4)), 2, discount=0.9)
        truth_at = int(rng.integers(0, 3))
        members = []
        for slot in range(3):
            if slot == truth_at:
                members.append(SubjectiveKernel(kernel=m.kernel, label="truth"))
            else:
                members.append(mixture_kernel(m, float(rng.uniform(0.05, 0.5))))
        members = [
            SubjectiveKernel(kernel=q.kernel, label=f"{slot}:{q.label}", param=q.param)
            for slot, q in enumerate(members)
        ]
        cs = ConjectureSet(members=tuple(members))
        best, values = entropy_bn_select(m, cs, 0.1)
        if best != truth_at or values[truth_at] != 0.0:
            problems.append(f"[{i}] selection missed the true model")
            break
        report = enumerate_equilibria(m, cs, temperature=0.1)
        if truth_at not in [e.model_index for e in report.equilibria]:
            problems.append(f"[{i}] true model missing from equilibrium set")
            break
    _finish(7, "true-model recovery", start, 30.0, problems)


def test_criterion_8_exp3_sanity():
    start = time.perf_counter()
    problems = []

    S = 3
    k0 = np.zeros((S, S))
    k1 = np.zeros((S, S))
    for x in range(S):
        k0[x, (x + 1) % S] = 1.0
        k1[x, (x + 2) % S] = 1.0
    m = MDPInstance(
        kernel=np.stack([k0, k1], axis=1),
        rewards=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
        discount=0.9,
        initial_dist=np.full(S, 1 / S),
    )
    cs = ConjectureSet(
        members=(
            SubjectiveKernel(kernel=m.kernel, label="truth"),
            SubjectiveKernel(kernel=np.full((S, 2, S), 1 / S), label="noise"),
        )
    )
    cfg = BanditConfig(learning_rate=0.05, exploration=0.1, horizon=2000, rng_seed=0)
    rec = run_exp3(m, cs, cfg, SoftPlanConfig(temperature=0.1))
    if not np.allclose(rec.oracle_losses, [0.0, 1.0], atol=1e-12):
        problems.append(f"arm losses are {rec.oracle_losses}, not {{0, 1}}")
    share = float(np.mean(rec.arms[-400:] == 0))
    if share < 0.9:
        problems.append(f"zero-loss arm share {share} < 0.9 over last 400 rounds")

    rng = np.random.default_rng(1008)
    for K in (2, 3, 4):
        p = rng.dirichlet(np.ones(K))
        losses = rng.uniform(0.0, 1.0, size=K)
        for j in range(K):
            expectation = sum(
                p[k] * (losses[k] / p[k] if k == j else 0.0) for k in range(K)
            )
            if abs(expectation - losses[j]) > 1e-12:
                problems.append("importance-weighted estimator biased")
    _finish(8, "EXP3 sanity", start, 10.0, problems)


def test_criterion_9_case_study(bench, case_study_record):
    start = time.perf_counter()
    problems = []
    m, cs = bench
    rec = case_study_record

    freqs = rec.selection_frequencies
    if not (freqs[0] > freqs[1] > freqs[2] > freqs[3]):
        problems.append(f"frequencies not ordered inversely to eps: {freqs}")
    if np.argmax(freqs) != 0:
        problems.append("smallest-eps model is not the most selected")

    j1 = bilevel_objective(m, cs, 0, 0.1) / rec.loss_scale
    band = abs(rec.running_mean[-1] - j1) / j1
    if band > 0.15:
        problems.append(f"running mean {rec.running_mean[-1]:.5f} is {band:.1%} from {j1:.5f}")

    counts = tuple(int(c) for c in np.bincount(rec.arms, minlength=4))
    if counts != FROZEN_CASE_STUDY_COUNTS:
        problems.append(
            f"frozen-seed counts {counts} != baseline {FROZEN_CASE_STUDY_COUNTS}"
        )
    _finish(9, "case-study reproduction", start, 120.0, problems)


def _cli_run(tmp_path, name, config):
    """Run ``config`` through ``berknash run``; return its CSVs by file name."""
    out = tmp_path / name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**config, "output_dir": str(out)}))
    assert cli_main(["run", str(path)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def _csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


ROLLOUT_BANDIT = {"loss_estimator": "rollout", "loss_scale": 0.5, "horizon": 40,
                  "learning_rate": 0.1, "exploration": 0.1}


def _counts(csvs):
    return tuple(int(r["count"]) for r in _csv_rows(csvs["frequencies.csv"]))


def test_rollout_case_study_end_to_end(tmp_path, monkeypatch):
    monkeypatch.delenv("BERKNASH_OUTPUT_DIR", raising=False)
    csvs = _cli_run(tmp_path, "rollout", {
        "experiment": "case-study", "seed": FROZEN_CASE_STUDY_SEED, "bandit": ROLLOUT_BANDIT,
    })
    assert _counts(csvs) == FROZEN_ROLLOUT_COUNTS
    losses = [float(r["loss"]) for r in _csv_rows(csvs["loss_trace.csv"])]
    assert len(losses) == 40
    assert all(0.0 <= loss <= 1.0 for loss in losses)


def test_case_studies_at_multiword_seed(tmp_path, monkeypatch):
    monkeypatch.delenv("BERKNASH_OUTPUT_DIR", raising=False)
    config = {"experiment": "case-study", "seed": FROZEN_MULTIWORD_SEED}
    assert _counts(_cli_run(tmp_path, "oracle", config)) == FROZEN_MULTIWORD_COUNTS
    rollout = _cli_run(tmp_path, "rollout", {**config, "bandit": ROLLOUT_BANDIT})
    assert _counts(rollout) == FROZEN_MULTIWORD_ROLLOUT_COUNTS


def test_rollout_zooming_end_to_end(tmp_path, monkeypatch):
    monkeypatch.delenv("BERKNASH_OUTPUT_DIR", raising=False)
    config = {
        "experiment": "zooming", "seed": FROZEN_CASE_STUDY_SEED,
        "bandit": {"loss_estimator": "rollout", "loss_scale": 0.5, "horizon": 60,
                   "rollout_horizon": 2000},
        "zoom": {"zoom_interval": 20},
    }
    first = _cli_run(tmp_path, "a", config)
    assert _cli_run(tmp_path, "b", config) == first
    sizes = [int(r["num_arms"]) for r in _csv_rows(first["set_size.csv"])]
    assert sizes == [6] * 20 + [3] * 20 + [4] * 20
    losses = [float(r["loss"]) for r in _csv_rows(first["param_trace.csv"])]
    assert all(0.0 <= loss <= 1.0 for loss in losses)


def test_criterion_10_lambda_sweep(bench, tmp_path):
    start = time.perf_counter()
    problems = []
    m, cs = bench
    cfg = config_from_dict({
        "experiment": "lambda-sweep",
        "output_dir": str(tmp_path / "sweep"),
        "seed": FROZEN_CASE_STUDY_SEED,
    })
    artifacts = run_experiment(cfg)

    with open(artifacts.csv_paths["sweep"]) as fh:
        rows = list(csv.DictReader(fh))
    lams = sorted({float(r["lambda"]) for r in rows})
    pi_at = {}
    v_reward = {}
    for r in rows:
        lam = float(r["lambda"])
        pi_at.setdefault(lam, {})[(int(r["state"]), int(r["action"]))] = float(r["pi"])
        v_reward.setdefault(lam, {})[int(r["state"])] = float(r["v_reward"])

    hot = pi_at[lams[-1]]
    if abs(hot[(0, 0)] - 0.5) > 1e-3 or abs(hot[(0, 1)] - 0.5) > 1e-3:
        problems.append(f"pi(.|0) at lambda=1e4 not uniform: {hot}")

    br = best_response_policy(m.with_kernel(cs.members[0].kernel))
    cold = pi_at[lams[0]]
    dev = max(abs(cold[(0, a)] - br[0, a]) for a in range(2))
    if dev > 1e-3:
        problems.append(f"pi(.|0) at lambda=1e-4 deviates {dev:.2e} from the BR")

    for x in range(m.num_states):
        series = [v_reward[lam][x] for lam in lams]
        diffs = np.diff(series)
        if np.any(diffs > 1e-9):
            problems.append(f"reward-only value not non-increasing at state {x}")
    _finish(10, "lambda sweep shape", start, 60.0, problems)


def test_criterion_11_zooming(bench):
    start = time.perf_counter()
    problems = []
    m, _ = bench
    cfg = BanditConfig(horizon=1500, rng_seed=FROZEN_CASE_STUDY_SEED)
    zoom = ZoomConfig()
    rec = run_zoom_exp3(
        m,
        lambda e: mixture_kernel(m, float(e)),
        list(np.linspace(0.0, 0.5, 6)),
        cfg,
        zoom,
        SoftPlanConfig(temperature=0.1),
    )
    med = float(np.median(rec.selected_params[-150:]))
    if med > 0.05:
        problems.append(f"median selected eps over last 150 rounds is {med}")
    fp = np.array(rec.final_params)
    if fp.size == 0:
        problems.append("final conjecture set is empty")
    if np.any((fp < 0.0) | (fp > 0.5)):
        problems.append("parameters escaped the bounds")
    for ev in rec.events:
        if not any(abs(kp - ev.incumbent_param) < 1e-15 for kp in ev.kept):
            problems.append(f"incumbent lost at t={ev.t}")
            break
    pulled = rec.final_counts > 0
    inc_idx = int(np.argmin(np.where(pulled, rec.final_mean_losses, np.inf)))
    others = np.delete(fp, inc_idx)
    spacing = float(np.min(np.abs(others - fp[inc_idx]))) if others.size else np.inf
    if spacing > 0.0125:
        problems.append(f"grid spacing around incumbent {spacing} > 0.0125")
    _finish(11, "adaptive zooming", start, 120.0, problems)


def test_criterion_12_regret_envelope(case_study_record):
    start = time.perf_counter()
    problems = []
    rec = case_study_record
    T = rec.arms.size
    K = rec.oracle_losses.size
    envelope = 1.2 * 2.0 * math.sqrt(math.e - 1.0) * math.sqrt(T * K * math.log(K))
    if rec.regret[-1] > envelope:
        problems.append(f"regret {rec.regret[-1]:.1f} exceeds envelope {envelope:.1f}")
    half = rec.regret[T // 2 - 1] / (T // 2)
    full = rec.regret[-1] / T
    if not full < half:
        problems.append(f"regret rate not shrinking: {full:.4f} vs {half:.4f}")
    _finish(12, "regret envelope", start, 120.0, problems)
