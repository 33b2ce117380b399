"""The traced benchmark run wraps library functions by name; every name it
looks up must still exist, or the traced run breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(mod)  # the tracer imports only the standard library
    finally:
        del sys.modules[spec.name]
    return mod


def hooked_names():
    tracer = load_tracer()
    names = [(mod, fn) for mod, fns in tracer.SPAN_STAGES.values() for fn in fns]
    names += list(tracer.COUNT_STAGES.values())
    return names


@pytest.mark.parametrize("module,name", hooked_names())
def test_hooked_function_exists(module, name):
    mod = importlib.import_module("loglegendre." + module)
    assert callable(getattr(mod, name, None)), f"loglegendre.{module}.{name}"
