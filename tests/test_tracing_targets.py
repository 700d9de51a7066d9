"""benchmarks/tracing.py wraps crossbound functions by (module, name) at run
time, so a name deleted from src/ breaks ``benchmarks/run.py --trace 1``
without failing any other test.  This checks that every name resolves."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _tracing_module()
    assert tracing.TARGETS
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _name, _size in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
    assert tracing.cli.PRESETS
