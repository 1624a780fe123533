"""Outside-in layer tracer for the berknash package.

The package binds names with ``from .x import y``, so patching
``berknash.simplex.simplex_solve`` alone would miss the harness's own
reference. :meth:`Tracer.install` therefore rebinds each public entry point
in every loaded ``berknash`` module that holds it, and :meth:`Tracer.uninstall`
puts the originals back. Spans live in memory until :meth:`Tracer.dump`.

A span's self time is its duration minus that of its direct child spans, so
the self times of all spans in a pass add up to the pass's root spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# (layer, module, function): wrapped in a timed span. ``learning.rollout``
# is the rollout estimator, kept apart from the bandit loop that calls it.
SPANNED = (
    ("learning", "learning", "run_exp3"),
    ("learning", "learning", "run_zoom_exp3"),
    ("learning", "learning", "oracle_loss"),
    ("learning.rollout", "learning", "rollout_loss"),
    ("equilibrium", "equilibrium", "enumerate_equilibria"),
    ("equilibrium", "equilibrium", "check_joint_feasibility"),
    ("soft_planning", "soft_planning", "soft_best_response"),
    ("planning", "planning", "value_iteration"),
    ("planning", "planning", "greedy_sets"),
    ("planning", "planning", "build_primal_lp"),
    ("planning", "planning", "build_dual_lp"),
    ("planning", "planning", "occupation_of_policy"),
    ("planning", "planning", "policy_from_occupation"),
    ("simplex", "simplex", "simplex_solve"),
    ("mdp", "mdp", "validate_instance"),
    ("mdp", "mdp", "state_action_frequencies"),
    ("mdp", "mdp", "stationary_distribution"),
    ("mdp", "mdp", "policy_value"),
    ("models", "models", "kl_cost_table"),
    ("models", "models", "mixture_kernel"),
)
# (module, function): per-sweep operators, counted without a span.
COUNTED = (
    ("soft_planning", "soft_bellman_operator"),
    ("planning", "bellman_operator"),
)
LAYERS = ("harness", "learning", "learning.rollout", "equilibrium", "soft_planning",
          "planning", "simplex", "mdp", "models")


def _observe_simplex(tracer, args, kwargs, result):
    tracer.counts["simplex.pivots"] += result.iterations


def _observe_kl_table(tracer, args, kwargs, result):
    m, q = args[0], args[1]
    tracer.kl_pairs.add((m.kernel.tobytes(), getattr(q, "kernel", q).tobytes()))


def _observe_enumeration(tracer, args, kwargs, result):
    tracer.counts["equilibrium.candidates"] += len(result.diagnostics)
    tracer.counts["equilibrium.accepted"] += sum(d.accepted for d in result.diagnostics)


def _observe_bandit(tracer, args, kwargs, result):
    tracer.counts["learning.rounds"] += len(result.losses)
    for event in getattr(result, "events", ()):
        tracer.counts["learning.zoom_arms_added"] += len(event.added)


def _observe_rollout(tracer, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    tracer.counts["learning.rollout_steps"] += cfg.rollout_horizon


OBSERVERS = {
    "simplex_solve": _observe_simplex,
    "kl_cost_table": _observe_kl_table,
    "enumerate_equilibria": _observe_enumeration,
    "run_exp3": _observe_bandit,
    "run_zoom_exp3": _observe_bandit,
    "rollout_loss": _observe_rollout,
}


class Tracer:
    """Spans ``[name, layer, start, end, parent, pass_id]`` and per-pass counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.pass_id = -1
        self.counts: Counter = Counter()
        self.kl_pairs: set = set()

    # -- binding -----------------------------------------------------------
    def install(self) -> None:
        mods = [mod for name, mod in list(sys.modules.items())
                if name == "berknash" or name.startswith("berknash.")]
        for layer, modname, fn in SPANNED:
            original = getattr(sys.modules[f"berknash.{modname}"], fn)
            self._rebind(mods, fn, original, self._spanned(layer, fn, original))
        for modname, fn in COUNTED:
            original = getattr(sys.modules[f"berknash.{modname}"], fn)
            self._rebind(mods, fn, original, self._counted(fn, original))

    def uninstall(self) -> None:
        for mod, fn, original in reversed(self._patched):
            setattr(mod, fn, original)
        self._patched.clear()

    def _rebind(self, mods, fn, original, wrapper) -> None:
        for mod in mods:
            if mod.__dict__.get(fn) is original:
                self._patched.append((mod, fn, original))
                setattr(mod, fn, wrapper)

    def _spanned(self, layer, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                self.close(span)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- spans -------------------------------------------------------------
    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts.clear()
        self.kl_pairs.clear()

    def end_pass(self) -> None:
        self.counts["models.kl_pairs"] = len(self.kl_pairs)
        self.pass_counts[self.pass_id] = Counter(self.counts)

    def open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "pass": pass_id}) + "\n")

    # -- metrics -----------------------------------------------------------
    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (see NOTES.md for definitions)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == pass_id]
        child_time: Counter = Counter()
        for _, s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        self_time = {layer: 0.0 for layer in LAYERS}
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, layer, start, end, _, _) in spans:
            self_time[layer] += (end - start) - child_time[i]
            inclusive[name] += end - start
            calls[name] += 1
        c = self.pass_counts[pass_id]
        kl_calls = calls["kl_cost_table"]
        candidates = c["equilibrium.candidates"]
        bandit_s = inclusive["run_exp3"] + inclusive["run_zoom_exp3"]
        rollout_s = inclusive["rollout_loss"]
        soft_calls = calls["soft_best_response"]
        return {
            "soft_planning.calls": soft_calls,
            "soft_planning.busy_s": self_time["soft_planning"],
            "soft_planning.sweeps": c["soft_bellman_operator"],
            "soft_planning.sweeps_per_solve":
                c["soft_bellman_operator"] / soft_calls if soft_calls else 0.0,
            "planning.vi_calls": calls["value_iteration"],
            "planning.vi_sweeps": c["bellman_operator"],
            "planning.busy_s": self_time["planning"],
            "simplex.solves": calls["simplex_solve"],
            "simplex.pivots": c["simplex.pivots"],
            "simplex.busy_s": self_time["simplex"],
            "simplex.failures": c["simplex_solve.errors"],
            "mdp.stationary_solves": calls["stationary_distribution"],
            "mdp.policy_evals": calls["policy_value"],
            "mdp.busy_s": self_time["mdp"],
            "models.kl_tables": kl_calls,
            "models.kl_tables_distinct_ratio":
                c["models.kl_pairs"] / kl_calls if kl_calls else 0.0,
            "models.busy_s": self_time["models"],
            "equilibrium.candidates": candidates,
            "equilibrium.accept_ratio":
                c["equilibrium.accepted"] / candidates if candidates else 0.0,
            "equilibrium.feasibility_checks": calls["check_joint_feasibility"],
            "equilibrium.self_s": self_time["equilibrium"],
            "learning.rounds": c["learning.rounds"],
            "learning.rounds_per_s": c["learning.rounds"] / bandit_s if bandit_s else 0.0,
            "learning.self_s": self_time["learning"],
            "learning.zoom_arms_added": c["learning.zoom_arms_added"],
            "learning.rollout_calls": calls["rollout_loss"],
            "learning.rollout_busy_s": self_time["learning.rollout"],
            "learning.rollout_steps_per_s":
                c["learning.rollout_steps"] / rollout_s if rollout_s else 0.0,
            "harness.self_s": self_time["harness"],
            "trace.layers_s": sum(self_time.values()),
        }

    def call_percentiles_ms(self, name: str, pass_ids) -> tuple[float, float]:
        """p50 and p90 of one entry point's span durations over some passes."""
        durations = [(s[3] - s[2]) * 1e3 for s in self.spans
                     if s[0] == name and s[5] in pass_ids]
        if not durations:
            return 0.0, 0.0
        if len(durations) == 1:
            return durations[0], durations[0]
        deciles = statistics.quantiles(durations, n=10, method="inclusive")
        return statistics.median(durations), deciles[8]
