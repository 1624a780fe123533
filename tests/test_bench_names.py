"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, fn) for _, mod, fn in tracer.SPANNED] + list(tracer.COUNTED)


@pytest.mark.parametrize("module, function", _traced_names(),
                         ids=lambda name: name)
def test_traced_name_exists(module, function):
    assert callable(getattr(importlib.import_module(f"berknash.{module}"), function, None))
