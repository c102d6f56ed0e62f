"""The benchmark tracer wraps hypervis functions by module attribute; every one must exist."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hypervis_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_exist():
    tracer = _load_tracer()
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracer.WRAPPED if not hasattr(module, attr)]
    assert not missing


def test_install_restores_every_attribute():
    tracer = _load_tracer()
    before = {(module.__name__, attr): getattr(module, attr) for module, attr, *_ in tracer.WRAPPED}
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert all(getattr(module, attr) is before[module.__name__, attr] for module, attr, *_ in tracer.WRAPPED)
