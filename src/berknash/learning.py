"""Online model selection as an adversarial bandit.

One exponential-weights loop serves both learners. Over a fixed conjecture
set it runs as is; the adaptive variant adds a zoom step that every
``zoom_interval`` rounds prunes clearly-suboptimal or resolved parameters
and refines a local grid around the best arm that is still uncertain.

Randomness discipline: every random draw comes from a generator seeded by
(seed, round, stream), with stream 0 for arm sampling and stream 1 for
rollout simulation. Traces are therefore bit-reproducible and independent
of caching or evaluation order. The stream-0 draws do not depend on the
weights, so they are computed ``ARM_BLOCK`` rounds at a time as the loop
reaches them (:func:`_arm_uniforms`); they are the same numbers that
per-round generators would give.

The loop also owns the arm table: each arm's conjecture, softmax best
response, oracle loss and rollout walk tables are computed on first use and
cached by key.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain

import numpy as np

from .mdp import MDPInstance, state_action_frequencies
from .models import ConjectureSet, SubjectiveKernel, kl_cost_table, kl_divergence, long_run_divergence
from .soft_planning import SoftPlanConfig, soft_best_response

ARM_STREAM = 0
ROLLOUT_STREAM = 1
# rounds whose arm draws are computed together, so memory stays flat in the horizon
ARM_BLOCK = 4096
# zoom points closer than this fraction of the bounds' width are float twins
DEDUPE_REL_TOL = float(np.sqrt(np.finfo(float).eps))
# Generator.choice's tolerance on the sum of its probabilities
P_SUM_TOL = float(np.sqrt(np.finfo(float).eps))

# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _round_rng(seed: int, t: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(t), stream]))


def _arm_uniforms(seed: int, horizon: int):
    """``_round_rng(seed, t, ARM_STREAM).random()`` for t = 1..horizon, bit for bit.

    Replays numpy's ``SeedSequence`` entropy mixing into its pool of four
    uint32 words, vectorized over t (entropy: the seed's little-endian 32-bit
    words, then t, then the stream). The pool's eight output words seed
    PCG64, whose first XSL-RR output is taken with Python integers and
    turned into a double as ``Generator.random`` does. Needs seed >= 0 and
    horizon < 2**32, so that t is one word. Lazy: each block of ``ARM_BLOCK``
    rounds is computed, as a list, when the iteration reaches it.
    """
    seed = int(seed)
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]

    def hasher(h, mult):
        def hashmix(v):
            nonlocal h
            v = v ^ np.uint32(h)
            h = h * mult & _MASK32
            v = v * np.uint32(h)
            return v ^ (v >> 16)
        return hashmix

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> 16)

    def block(first):
        ts = np.arange(first, min(first + ARM_BLOCK, horizon + 1), dtype=np.uint32)
        n = ts.size
        entropy = [np.full(n, w, np.uint32) for w in words]
        entropy += [ts, np.full(n, ARM_STREAM, np.uint32)]
        hashmix = hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
                for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(src))
        hashmix = hasher(_INIT_B, _MULT_B)
        # generate_state(4, uint64): eight words, paired little-endian
        seeds = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
        seeds = seeds.astype("<u4").view("<u8")

        out = []
        for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
            # seeding steps from state 0, adds the seed and steps again;
            # random() steps once more and outputs XSL-RR of the state
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            state = (state * _PCG_MULT + inc) & _MASK128
            x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            out.append((x >> 11) * 2.0**-53)
        return out

    return chain.from_iterable(map(block, range(1, horizon + 1, ARM_BLOCK)))


def _draw_arm(p: list[float], u: float) -> int:
    """The arm ``Generator.choice(len(p), p=p)`` draws when its uniform is ``u``.

    This is choice's own algorithm: a right-sided search of ``u`` in the
    cumulative sum divided by its last entry, after the same check of ``p``.
    """
    cdf = list(accumulate(p))
    if min(p) < 0.0 or not abs(cdf[-1] - 1.0) <= P_SUM_TOL:
        raise ValueError(f"arm probabilities must be non-negative and sum to 1, got {p}")
    total = cdf[-1]
    return bisect_right([c / total for c in cdf], u)


# the longest rollout: about 16 bytes of RSS a step on benchmark3 and 18 on a
# dense 30-state chain (the uniforms' 16 and one block's buffers), so one
# call at the cap peaks near 0.16-0.18 GB
MAX_ROLLOUT_HORIZON = 10**7
# rollout steps walked together, so actions and leave masks take S bytes
# each a step of one block, whatever the horizon
ROLLOUT_BLOCK = 2**14


@dataclass(frozen=True)
class BanditConfig:
    """Knobs for the exponential-weights loop.

    ``loss_scale`` divides clipped losses so the learner always sees values
    in [0, 1]; None means "use the largest per-entry KL cost over the initial
    conjecture set", which is only computable in oracle mode, so rollout
    mode requires an explicit scale.

    Defaults are tuned for deterministic (oracle) per-arm losses, where an
    aggressive learning rate and a thin exploration floor concentrate fast;
    lower the rate and raise exploration for noisy rollout estimates.
    """

    learning_rate: float = 0.5
    exploration: float = 0.0125
    horizon: int = 1500
    loss_estimator: str = "oracle"
    rollout_horizon: int = 10_000
    rollout_smoothing: float = 1e-3
    loss_scale: float | None = None
    rng_seed: int = 11

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (0.0 < self.exploration < 1.0):
            raise ValueError(f"exploration must lie in (0, 1), got {self.exploration}")
        if not 1 <= self.horizon < 2**32:
            raise ValueError(f"horizon must lie in [1, 2**32), got {self.horizon}")
        if self.loss_estimator not in ("oracle", "rollout"):
            raise ValueError(f"unknown loss_estimator {self.loss_estimator!r}")
        if not 1 <= self.rollout_horizon <= MAX_ROLLOUT_HORIZON:
            raise ValueError(f"rollout_horizon must lie in [1, {MAX_ROLLOUT_HORIZON}], "
                             f"got {self.rollout_horizon}")
        if not 0.0 < self.rollout_smoothing < np.inf:
            raise ValueError(
                f"rollout_smoothing must be positive and finite, got {self.rollout_smoothing}"
            )
        if self.loss_scale is not None and not 0.0 < self.loss_scale < np.inf:
            raise ValueError(f"loss_scale must be positive and finite, got {self.loss_scale}")
        if self.loss_scale is None and self.loss_estimator == "rollout":
            raise ValueError("rollout mode requires an explicit loss_scale")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


def _pairwise_sum(x) -> float:
    """``np.add.reduce`` of float64 values, bit for bit: numpy's pairwise sum.

    Below 8 entries a left-to-right sum from 0.0; up to 128, eight running
    sums combined as a tree, then the rest left to right; beyond, the two
    halves split at a multiple of 8. Written as ``+=`` loops because the
    builtin ``sum`` of floats compensates from Python 3.12 on.
    """
    n = len(x)
    if n < 8:
        total = 0.0
        for v in x:
            total += v
        return total
    if n <= 128:
        r, tail = list(x[:8]), n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += x[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in x[tail:]:
            total += v
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def sampling_distribution(weights, exploration: float) -> list[float]:
    """Exploration-mixed sampling law (1-gamma) w/sum(w) + gamma/K.

    Computed on Python floats with numpy's operation order and summation,
    so it equals the array expression ``(1-gamma) * w / w.sum() + gamma/K``
    bit for bit.
    """
    if not all(0.0 < x < math.inf for x in weights):
        raise ValueError("weights must be strictly positive and finite")
    scale, floor = 1.0 - exploration, exploration / len(weights)
    total = _pairwise_sum(weights)
    return [scale * x / total + floor for x in weights]


def exp3_update(weights, arm: int, loss: float, prob: float, learning_rate: float) -> None:
    """Importance-weighted exponential update of the pulled arm's weight, in place.

    Weights are renormalized by their max afterwards, which leaves the
    sampling law invariant and prevents underflow over long runs. ``weights``
    is a list or an array; the factor comes from ``np.exp``, whose rounding
    differs from ``math.exp``'s on some arguments.
    """
    if not 0.0 < prob < math.inf:
        raise ValueError(f"pulled arm must have positive probability, got {prob}")
    if not math.isfinite(loss):
        raise ValueError(f"loss must be finite, got {loss}")
    weights[arm] *= float(np.exp(-learning_rate * loss / prob))
    top = max(weights)
    # a deeply suppressed arm's weight can underflow to exact zero; the
    # floor keeps weights strictly positive without moving the sampling law
    weights[:] = [max(w / top, 1e-300) for w in weights]


def resolve_loss_scale(
    m: MDPInstance, members, cfg: BanditConfig
) -> float:
    """The divisor normalizing losses into [0, 1].

    Defaults to the largest per-entry KL cost over the given conjectures;
    rollout mode has no oracle access, so its config always sets the scale.
    """
    if cfg.loss_scale is not None:
        return cfg.loss_scale
    top = max(float(kl_cost_table(m, q).max()) for q in members)
    if top <= 0.0:
        # every conjecture matches the truth exactly; any positive scale works
        return 1.0
    return top


def oracle_loss(
    m: MDPInstance,
    q: SubjectiveKernel,
    pi: np.ndarray,
    loss_scale: float,
) -> float:
    """Exact normalized long-run KL cost of running ``pi`` while conjecturing ``q``."""
    d = state_action_frequencies(m, pi)
    return min(long_run_divergence(d, kl_cost_table(m, q)), loss_scale) / loss_scale


def _rollout_tables(m: MDPInstance, q: SubjectiveKernel, pi: np.ndarray, smoothing: float):
    """The walk tables of one arm, which every rollout of it reuses.

    ``(cuts, rows, lo, hi, cum_init, Q)``: the policy's cut points by action,
    each (S, 1) column ``cum_pi[:, a]`` for a < A − 1; ``rows[x][a]``, the
    cumulative kernel row of ``(x, a)`` as a Python list with its last entry
    replaced by ``inf``; the (S, A) edges ``lo[x, a]`` and ``hi[x, a]``,
    entries x − 1 (−inf for x = 0) and x of that row; the cumulative initial
    law; and the conjecture with its zero-containing rows smoothed.
    """
    S, A = m.num_states, m.num_actions
    cum_pi = np.cumsum(np.asarray(pi, dtype=float), axis=1)
    cum_kernel = np.cumsum(m.kernel, axis=2)
    cum_kernel[:, :, -1] = np.inf
    edges = np.concatenate([np.full((S, A, 1), -np.inf), cum_kernel], axis=2)
    diag = np.arange(S)
    Q = q.kernel
    Q = np.where(np.any(Q <= 0.0, axis=2, keepdims=True),
                 (Q + smoothing) / (1.0 + S * smoothing), Q)
    return (cum_pi[:, :-1].T[:, :, None], cum_kernel.tolist(), edges[diag, :, diag],
            edges[diag, :, diag + 1], np.cumsum(m.initial_dist), Q)


def rollout_loss(
    m: MDPInstance,
    q: SubjectiveKernel,
    pi: np.ndarray,
    cfg: BanditConfig,
    loss_scale: float,
    rng: np.random.Generator,
    tables: tuple | None = None,
) -> float:
    """Plug-in estimate of the long-run KL cost from a simulated trajectory.

    Simulates ``rollout_horizon`` steps under the true kernel, discards the
    first tenth as burn-in, builds additively smoothed empirical transition
    rows, and evaluates the frequency-weighted KL against the conjecture.
    Conjecture rows containing zeros are smoothed the same way so the
    plug-in stays finite. ``tables`` are the arm's walk tables from
    :func:`_rollout_tables`; a call without them builds its own.

    Each step samples by inverse CDF from pre-drawn uniforms, and the steps
    are taken ``ROLLOUT_BLOCK`` at a time. In a block, ``act[x, t]`` is the
    number of state x's cuts ``cum_pi[x, :-1]`` at or below step t's action
    uniform w, which is the action x draws there: the reference draw
    ``min(searchsorted(cum_pi[x], w, "right"), A - 1)`` is the same count.
    The cumulative row is non-decreasing, so the right-sided search counts
    its entries at or below w; if the last entry is one of them, so are all
    the others, and the clip leaves A − 1, the count of the cuts. This holds
    for tied cuts (zero-probability actions), for rows whose sum rounds
    below 1 or ends in zeros, and for A = 1, which has no cuts and draws
    action 0. The next state is ``bisect_right(rows[x][a], v)``, where
    ``rows[x][a]`` is the cumulative kernel row of (x, a) as a Python list
    with its last entry replaced by ``inf``; since the uniforms are below 1,
    this clips a draw past a sum rounded below 1 to the last index.

    The walk goes from one state change to the next. The row is sorted, so
    ``bisect_right`` returns x exactly when ``lo[x, a] <= v < hi[x, a]``,
    where ``hi`` is entry x of the row and ``lo`` is entry x − 1 (−inf for
    x = 0): these are the two comparisons the search makes at the boundary
    of x's interval, on the same untouched floats. Each state's leave mask,
    a ``bytes`` object, flags the block's steps at which that state, drawing
    its own action, fails this stay test, and ``bytes.find`` jumps to the
    next step at which the current state is flagged. There the same
    ``bisect_right`` as in a per-step walk gives the next state. This is
    exact: a flagged step is resolved by the per-step walk's own search, a
    falsely flagged step would only hand back x, and a leave cannot go
    unflagged, because the stay test is made of the search's own
    comparisons. The walk's leave steps expand its states into the state of
    every step of the block, ``act`` gives their actions, and one
    ``np.bincount`` counts the block's transitions after burn-in. A block
    holds S action bytes and S mask bytes a step, whatever the horizon.
    """
    S, A = m.num_states, m.num_actions
    H = cfg.rollout_horizon
    burn_in = H // 10
    alpha = cfg.rollout_smoothing
    cuts, rows, lo, hi, cum_init, Q = tables or _rollout_tables(m, q, pi, alpha)
    u = rng.random((H, 2))
    x = min(int(np.searchsorted(cum_init, rng.random(), side="right")), S - 1)

    counts = np.zeros(S * A * S, dtype=np.intp)
    for first in range(0, H, ROLLOUT_BLOCK):
        w, v = u[first:first + ROLLOUT_BLOCK].T.copy()
        n = len(v)
        act = np.zeros((S, n), np.min_scalar_type(A - 1))
        for c in cuts:
            act += w >= c
        find = [((v >= hi_x.take(a)) | (lo_x.take(a) > v)).tobytes().find
                for lo_x, hi_x, a in zip(lo, hi, act)]
        acts, v_t = [memoryview(a) for a in act], memoryview(v)
        states, leaves = [x], []
        t = find[x](1)
        while t >= 0:
            x = bisect_right(rows[x][acts[x][t]], v_t[t])
            states.append(x)
            leaves.append(t)
            t = find[x](1, t + 1)
        del find  # release the masks before counting
        # seq[t] is the state before the block's step t, seq[n] the state after it
        seq = np.repeat(states, np.diff([-1, *leaves, n]))
        skip = min(max(burn_in - first, 0), n)
        x_t = seq[skip:-1]
        a_t = act.take(x_t * n + np.arange(skip, n))
        counts += np.bincount((x_t * A + a_t) * S + seq[skip + 1:], minlength=S * A * S)
        del act, acts, leaves  # release them before the next block is built
    counts = counts.reshape(S, A, S).astype(float)

    visits = counts.sum(axis=2)
    p_hat = (counts + alpha) / (visits + S * alpha)[:, :, None]
    div = float(np.sum(visits / visits.sum() * kl_divergence(p_hat, Q)))
    return min(max(div, 0.0), loss_scale) / loss_scale


@dataclass(frozen=True)
class Exp3RunRecord:
    """Full trace of one fixed-set run plus derived summaries.

    ``regret`` is cumulative versus the best fixed arm, with per-arm oracle
    losses as the reference even when the run itself used rollouts.
    """

    labels: tuple[str, ...]
    params: tuple
    loss_scale: float
    oracle_losses: np.ndarray
    arms: np.ndarray
    probs: np.ndarray
    losses: np.ndarray
    running_mean: np.ndarray
    regret: np.ndarray
    selection_frequencies: np.ndarray


@dataclass(frozen=True)
class ZoomEvent:
    """What one zoom boundary did to the conjecture set."""

    t: int
    incumbent_param: float
    kept: tuple
    pruned: tuple  # (param, reason) pairs
    added: tuple


# the largest starting grid (about 1.1 KB of RSS an arm) and refinement grid
# (about 46 bytes a point); a run at either cap peaks under 1 GB
MAX_INITIAL_GRID = 5 * 10**5
MAX_GRID_SIZE = 10**7


@dataclass(frozen=True)
class ZoomConfig:
    """Zoom schedule: thresholds and radii decay geometrically per epoch.

    At round t the epoch index is floor(t / zoom_interval), and e.g.
    alpha_t = alpha0 * alpha_decay**epoch. Decays in (0, 1] keep every
    schedule positive and non-increasing. ``initial_grid`` is the number of
    evenly spaced parameters over ``bounds`` that a zooming run starts from.
    """

    zoom_interval: int = 100
    alpha0: float = 0.1
    alpha_decay: float = 0.8
    delta0: float = 0.02
    delta_decay: float = 1.0
    rho0: float = 0.1
    rho_decay: float = 0.5
    grid_size: int = 3
    uncertainty_scale: float = 1.0
    bounds: tuple[float, float] = (0.0, 0.5)
    initial_grid: int = 6

    def __post_init__(self):
        if self.zoom_interval < 1:
            raise ValueError(f"zoom_interval must be >= 1, got {self.zoom_interval}")
        for name in ("alpha0", "delta0", "rho0", "uncertainty_scale"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("alpha_decay", "delta_decay", "rho_decay"):
            if not (0.0 < getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        if not 2 <= self.grid_size <= MAX_GRID_SIZE:
            raise ValueError(f"grid_size must lie in [2, {MAX_GRID_SIZE}], got {self.grid_size}")
        if not 1 <= self.initial_grid <= MAX_INITIAL_GRID:
            raise ValueError(f"initial_grid must lie in [1, {MAX_INITIAL_GRID}], "
                             f"got {self.initial_grid}")
        lo, hi = self.bounds
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"bounds must be finite with lo < hi, got {self.bounds}")

    def alpha(self, t: int) -> float:
        return self.alpha0 * self.alpha_decay ** (t // self.zoom_interval)

    def delta(self, t: int) -> float:
        return self.delta0 * self.delta_decay ** (t // self.zoom_interval)

    def rho(self, t: int) -> float:
        return self.rho0 * self.rho_decay ** (t // self.zoom_interval)


@dataclass(frozen=True)
class ZoomRunRecord:
    """Trace of a bandit run: per-round pulls plus per-epoch set surgery.

    ``selected_params`` holds the key of the arm pulled in each round: a
    parameter value in a zooming run, a member index in :func:`run_exp3`'s.
    """

    loss_scale: float
    selected_params: np.ndarray
    probs: np.ndarray
    losses: np.ndarray
    set_sizes: np.ndarray
    events: tuple[ZoomEvent, ...]
    final_params: tuple
    final_mean_losses: np.ndarray
    final_counts: np.ndarray
    final_weights: np.ndarray

    @property
    def running_mean(self) -> np.ndarray:
        return np.cumsum(self.losses) / np.arange(1, self.losses.size + 1)


def _bandit_loop(
    m: MDPInstance, family, keys, cfg: BanditConfig, soft_cfg: SoftPlanConfig,
    zoom_cfg: ZoomConfig | None = None,
) -> tuple:
    """The exponential-weights loop shared by both learners, and its arm table.

    Arms are identified by keys. ``arm_for(key)`` gives the conjecture
    ``family(key)`` and its softmax best response, ``oracle_for(key)`` the
    arm's oracle loss and ``tables_for(key)`` its rollout walk tables; all
    are cached on first use, and the loss scale is resolved over the initial
    arms. Each round samples an arm, takes its
    loss (the oracle's, or a rollout of its policy), updates its count,
    running mean and weight, and records the round. With a ``zoom_cfg``,
    every ``zoom_interval`` rounds the arm set is rebuilt by
    :func:`_zoom_step`. The per-arm state is kept in Python lists, since a
    round touches only a handful of entries. Returns ``(oracle_for, record)``.
    """
    @cache
    def arm_for(key):  # (conjecture, policy)
        q = family(key)
        return q, soft_best_response(m.with_kernel(q.kernel), soft_cfg)[0]

    @cache
    def oracle_for(key):
        return oracle_loss(m, *arm_for(key), loss_scale)

    @cache
    def tables_for(key):
        return _rollout_tables(m, *arm_for(key), cfg.rollout_smoothing)

    keys = list(keys)
    loss_scale = resolve_loss_scale(m, [arm_for(k)[0] for k in keys], cfg)
    weights, counts, means = [1.0] * len(keys), [0] * len(keys), [0.0] * len(keys)
    rounds: list[tuple] = []  # (key, prob, loss, set size)
    events: list[ZoomEvent] = []

    for t, u in enumerate(_arm_uniforms(cfg.rng_seed, cfg.horizon), start=1):
        K = len(keys)
        p = sampling_distribution(weights, cfg.exploration)
        arm = _draw_arm(p, u)
        if cfg.loss_estimator == "oracle":
            loss = oracle_for(keys[arm])
        else:
            q, pi = arm_for(keys[arm])
            loss = rollout_loss(m, q, pi, cfg, loss_scale,
                                _round_rng(cfg.rng_seed, t, ROLLOUT_STREAM), tables_for(keys[arm]))
        counts[arm] += 1
        means[arm] += (loss - means[arm]) / counts[arm]
        exp3_update(weights, arm, loss, p[arm], cfg.learning_rate)
        rounds.append((keys[arm], p[arm], loss, K))

        if zoom_cfg is not None and t % zoom_cfg.zoom_interval == 0:
            keys, weights, counts, means, event = _zoom_step(
                t, keys, weights, counts, means, zoom_cfg
            )
            events.append(event)

    pulled, probs, losses, set_sizes = zip(*rounds)
    return oracle_for, ZoomRunRecord(
        loss_scale=loss_scale,
        selected_params=np.array(pulled),
        probs=np.array(probs),
        losses=np.array(losses),
        set_sizes=np.array(set_sizes),
        events=tuple(events),
        final_params=tuple(keys),
        final_mean_losses=np.array(means),
        final_counts=np.array(counts),
        final_weights=np.array(weights),
    )


def _zoom_step(t: int, params: list, weights, counts, means, zoom_cfg: ZoomConfig):
    """Prune and refine the parameter set at zoom boundary ``t``.

    With alpha, delta and rho the schedule's values at ``t``, a pulled arm's
    uncertainty is ``uncertainty_scale / math.sqrt(count)`` (correctly
    rounded, as ``np.sqrt`` is). Never-pulled arms have no loss estimate
    yet, so they are kept untouched and neither pruned nor refined around.
    Among the pulled arms:

    - the incumbent, of lowest running mean (lowest index on ties), is kept;
    - another arm is "suboptimal" if its mean exceeds the incumbent's plus
      alpha, else "converged" if its uncertainty is below delta, else kept;
    - the refinement center is the kept arm of lowest mean (lowest index on
      ties) whose uncertainty is at least delta; with none, nothing is added.

    Refining every near-optimal arm would grow the set geometrically (rho
    shrinks faster than the alpha band), so resolution is added around the
    center p only. A point of ``np.linspace(max(lo, p - rho), min(hi, p +
    rho), grid_size)`` joins ``seen`` if it lies more than ``DEDUPE_REL_TOL *
    (hi - lo)`` from every kept parameter and earlier point in ``seen``, and
    joins the set if it also lies at least rho/2 from every kept and added
    arm: closer points add no resolution and would let the set grow without
    bound. Once rho falls below that floor, no point is added at all.

    Each point is compared with its two neighbours among the kept
    parameters, the last point seen and the last one added, not with every
    earlier point. This is exact because ``np.linspace`` is monotone (it
    computes start + k * step, which rounds monotonically in k, and ends at
    its stop itself), and a rounded difference ``point - q`` is monotone in
    q. So the nearest earlier point of ``seen`` is the last one seen, the
    nearest added arm is the last one added, and the nearest kept parameters
    are the two that enclose the point in sorted order, found by
    ``bisect``. Each test makes its own comparison (``> tol`` or
    ``>= rho/2``) on the nearest distance, which decides it, so a step
    costs O(grid_size log K), not O(grid_size**2).

    Kept arms carry their weight, count and running mean over; new arms
    start at the median kept weight with the center's running mean as
    prior. ``weights``, ``counts`` and ``means`` are the loop's lists.
    Returns the new ``(params, weights, counts, means)`` and the event.
    """
    delta, rho = zoom_cfg.delta(t), zoom_cfg.rho(t)
    # the round just played pulled an arm, so the incumbent exists
    incumbent = min((k for k, n in enumerate(counts) if n > 0), key=means.__getitem__)
    floor = means[incumbent] + zoom_cfg.alpha(t)
    kept, pruned, uncertain = [], [], []
    for k, n in enumerate(counts):
        resolved = n > 0 and zoom_cfg.uncertainty_scale / math.sqrt(n) < delta
        if k != incumbent and n > 0 and (means[k] > floor or resolved):
            pruned.append((params[k], "suboptimal" if means[k] > floor else "converged"))
            continue
        kept.append(k)
        if n > 0 and not resolved:
            uncertain.append(k)

    kept_params = [params[k] for k in kept]
    added: list = []
    prior = 0.0
    if uncertain:
        center = min(uncertain, key=means.__getitem__)
        p, (lo, hi), prior = params[center], zoom_cfg.bounds, means[center]
        tol, near = DEDUPE_REL_TOL * (hi - lo), sorted(kept_params)
        seen = placed = -math.inf  # the last grid point seen and added
        grid = np.linspace(max(lo, p - rho), min(hi, p + rho), zoom_cfg.grid_size).tolist()
        for point in grid:
            i = bisect_right(near, point)
            gap = min(abs(point - q) for q in near[max(i - 1, 0):i + 1])
            if abs(point - seen) > tol and gap > tol:
                seen = point
                if abs(point - placed) >= 0.5 * rho and gap >= 0.5 * rho:
                    added.append(point)
                    placed = point

    event = ZoomEvent(t=t, incumbent_param=params[incumbent], kept=tuple(kept_params),
                      pruned=tuple(pruned), added=tuple(added))
    kept_w = [weights[k] for k in kept]
    # the median of the kept weights is never above their max
    top = max(kept_w)
    weights = [w / top for w in kept_w + [statistics.median(kept_w)] * len(added)]
    counts = [counts[k] for k in kept] + [0] * len(added)
    means = [means[k] for k in kept] + [prior] * len(added)
    return kept_params + added, weights, counts, means, event


def run_exp3(
    m: MDPInstance,
    cs: ConjectureSet,
    cfg: BanditConfig,
    soft_cfg: SoftPlanConfig,
) -> Exp3RunRecord:
    """Exponential-weights model selection over a fixed conjecture set.

    Arms are keyed by member index (tabular conjectures carry no param).
    Every member's oracle loss serves as the regret reference, also in
    rollout mode.
    """
    oracle_for, run = _bandit_loop(m, cs.members.__getitem__, range(len(cs)), cfg, soft_cfg)
    oracle = np.array([oracle_for(k) for k in range(len(cs))])

    arms = run.selected_params
    steps = np.arange(1, cfg.horizon + 1)
    return Exp3RunRecord(
        labels=tuple(q.label for q in cs),
        params=tuple(q.param for q in cs),
        loss_scale=run.loss_scale,
        oracle_losses=oracle,
        arms=arms,
        probs=run.probs,
        losses=run.losses,
        running_mean=run.running_mean,
        regret=np.cumsum(oracle[arms]) - steps * oracle.min(),
        selection_frequencies=np.bincount(arms, minlength=len(cs)) / cfg.horizon,
    )


def run_zoom_exp3(
    m: MDPInstance,
    family,
    initial_params,
    cfg: BanditConfig,
    zoom_cfg: ZoomConfig,
    soft_cfg: SoftPlanConfig,
) -> ZoomRunRecord:
    """Adaptive exponential weights over a self-refining conjecture set.

    ``family`` maps a parameter value to a :class:`SubjectiveKernel`; arms
    are keyed by parameter value. Every ``zoom_interval`` rounds the current
    set is pruned by running mean and uncertainty, then a finer local grid is
    added around the best arm that is still uncertain enough to refine (see
    :func:`_zoom_step`). The incumbent always survives and never-pulled arms
    are left untouched, so the set is never empty. The initial arms are
    planned before the first round; an added arm is planned by the loop's
    arm table on its first pull, so arms pruned unpulled cost no planning.
    Every initial parameter must lie within ``zoom_cfg.bounds``, which the
    refinement grids never leave.

    Arm p's oracle loss is its own-data KL cost (see
    :func:`~berknash.equilibrium.bilevel_objective`) up to scale, so the run
    settles at that cost's minimizer. At a positive temperature that need
    not be an equilibrium, whose p must minimize the cost, over all
    parameters, of the data that p's own policy generates. Example:
    benchmark3's truth with action 1 conjectured as the row
    (1-p)(0.5, 0.4, 0.1) + p(0.1, 0.2, 0.7) from every state, zoomed over
    [0, 1], ends at p = 0.0626 at temperature 0.1, where the soft equilibrium
    is 0.4452, and at the equilibrium 0.1639 at temperature 0.01.
    """
    params = [float(p) for p in initial_params]
    if not params:
        raise ValueError("initial conjecture set must be nonempty")
    lo, hi = zoom_cfg.bounds
    outside = [p for p in params if not lo <= p <= hi]
    if outside:
        raise ValueError(f"initial parameters {outside} lie outside the zoom bounds "
                         f"{zoom_cfg.bounds}")
    return _bandit_loop(m, family, params, cfg, soft_cfg, zoom_cfg)[1]
