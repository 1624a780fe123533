"""The work of the default pipelines and of the rollout case study, pinned.

Wall time on a shared machine drifts by up to 2x between runs, while these
counts repeat exactly, so they show a change in work that a timing cannot.
A change that moves a count states the move, and its reason, with its bench
record. Each count is taken by rebinding a function in every ``berknash``
module that holds it, as the bench's tracer does.
"""

import sys
from collections import Counter

from berknash import config_from_dict, run_experiment

# (module, function) whose calls are counted; simplex_solve also adds its
# pivots, and learning's bisect_right is the rollout walk's search (and the
# arm draw's, once a round)
COUNTED = (
    ("soft_planning", "soft_best_response"),
    ("soft_planning", "soft_bellman_operator"),
    ("planning", "value_iteration"),
    ("planning", "bellman_operator"),
    ("simplex", "simplex_solve"),
    ("mdp", "stationary_distribution"),
    ("models", "kl_cost_table"),
    ("learning", "exp3_update"),
    ("learning", "rollout_loss"),
    ("learning", "bisect_right"),
)
ROLLOUT_BANDIT = {"loss_estimator": "rollout", "loss_scale": 0.5, "horizon": 40,
                  "learning_rate": 0.1, "exploration": 0.1}
PIPELINES = ("case-study", "lambda-sweep", "zooming", "equilibrium-report", "duality-audit")


def _counting(name, fn, counts):
    def counted(*args, **kwargs):
        counts[name] += 1
        result = fn(*args, **kwargs)
        if name == "simplex_solve":
            counts["simplex pivots"] += result.iterations
        return result
    return counted


def _work(tmp_path, monkeypatch, configs) -> Counter:
    counts = Counter()
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "berknash" or name.startswith("berknash.")]
    for modname, name in COUNTED:
        original = getattr(sys.modules[f"berknash.{modname}"], name)
        for mod in modules:
            if mod.__dict__.get(name) is original:
                monkeypatch.setattr(mod, name, _counting(name, original, counts))
    for i, config in enumerate(configs):
        out = tmp_path / str(i)
        run_experiment(config_from_dict({**config, "seed": 11, "output_dir": str(out)}))
        counts["csv bytes"] += sum(path.stat().st_size for path in out.glob("*.csv"))
    return counts


def _assert_pinned(counts, pinned):
    moved = {name: f"{counts[name]} (pinned {want})" for name, want in pinned.items()
             if counts[name] != want}
    assert not moved, f"work counts moved: {moved}"


def test_default_pipelines_work_counts(tmp_path, monkeypatch):
    counts = _work(tmp_path, monkeypatch, [{"experiment": kind} for kind in PIPELINES])
    _assert_pinned(counts, {
        "soft_best_response": 63,
        "soft_bellman_operator": 295,
        "value_iteration": 9,
        "bellman_operator": 18,
        "simplex_solve": 12,
        "simplex pivots": 74,
        "stationary_distribution": 39,
        "kl_cost_table": 51,
        "exp3_update": 3000,
        "rollout_loss": 0,
        "csv bytes": 310246,
    })


def test_rollout_case_study_work_counts(tmp_path, monkeypatch):
    counts = _work(tmp_path, monkeypatch, [{"experiment": "case-study", "bandit": ROLLOUT_BANDIT}])
    # each round draws its arm with one bisect_right; the rest are the walk's,
    # one per state change of the 40 rollouts of 10**4 steps
    counts["walk bisects"] = counts["bisect_right"] - counts["exp3_update"]
    _assert_pinned(counts, {
        "soft_best_response": 4,
        "soft_bellman_operator": 19,
        "value_iteration": 0,
        "bellman_operator": 0,
        "simplex_solve": 0,
        "stationary_distribution": 4,
        "kl_cost_table": 4,
        "exp3_update": 40,
        "rollout_loss": 40,
        "walk bisects": 4789,
        "csv bytes": 4855,
    })
