"""The benchmark's tracer wraps library functions by module and name.

A rename or deletion in the library would leave `benchmark/run.py --trace 1`
broken, so every traced name must resolve.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look the module up
    spec.loader.exec_module(tracer)
    hooks = [(span, module, attr) for span, pairs in tracer.TRACED.items() for module, attr in pairs]
    assert hooks
    for span, module, attr in hooks:
        assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr} is gone"
