"""The benchmark's tracer wraps package functions by name; each must exist,
and its observers must still read the results the pipelines return."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from berknash import config_from_dict, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracer = _load("tracer")
    return [(mod, fn) for _, mod, fn in tracer.SPANNED] + list(tracer.COUNTED)


@pytest.mark.parametrize("module, function", _traced_names(),
                         ids=lambda name: name)
def test_traced_name_exists(module, function):
    assert callable(getattr(importlib.import_module(f"berknash.{module}"), function, None))


def test_observers_read_a_tiny_pass(tmp_path):
    # the five pipelines at tiny size plus a 3-round rollout case study, as
    # one traced pass: every observed count is read off a real result
    tracer_mod, workloads = _load("tracer"), _load("workloads")
    pipelines = (workloads.build("bench3-oracle", 11, tiny=True)
                 + workloads.build("bench3-rollout", 11, tiny=True))
    names = {fn for *_, fn in tracer_mod.SPANNED + tracer_mod.COUNTED}
    modules = [mod for name, mod in sys.modules.items()
               if name == "berknash" or name.startswith("berknash.")]
    bound = {(mod.__name__, fn): mod.__dict__[fn]
             for mod in modules for fn in names if fn in mod.__dict__}

    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.start_pass(0)
    try:
        for i, pipe in enumerate(pipelines):
            run_experiment(config_from_dict({**pipe.config, "output_dir": str(tmp_path / str(i))}))
    finally:
        tracer.uninstall()
    tracer.end_pass()

    metrics = tracer.pass_metrics(0)
    for name in ("equilibrium.candidates", "simplex.pivots", "learning.rounds",
                 "learning.rollout_calls", "learning.zoom_arms_added"):
        assert metrics[name] > 0, name
    assert all(sys.modules[mod].__dict__[fn] is original
               for (mod, fn), original in bound.items())
