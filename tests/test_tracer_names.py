"""The benchmark tracer wraps hypervis functions by module attribute; every one must exist."""

import importlib.util
from pathlib import Path

import numpy as np

from hypervis import intersect, procsim
from hypervis.closedform import FixedRadius
from hypervis.rng import stream

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
    kernel = intersect._count_crossings_vectorized
    t = tracer.Tracer()
    try:
        t.install()
        assert intersect._count_crossings_vectorized is not kernel
    finally:
        t.uninstall()
    assert all(getattr(module, attr) is before[module.__name__, attr] for module, attr, *_ in tracer.WRAPPED)
    assert intersect._count_crossings_vectorized is kernel


def test_crossing_kernel_exists():
    # the tracer counts grain pairs by wrapping this kernel outside WRAPPED, by name and signature
    assert callable(intersect._count_crossings_vectorized)
    counts, tangents = intersect._count_crossings_vectorized(np.zeros((0, 3)), np.zeros(0), 1.0)
    assert (counts, tangents) == (0, 0)


def test_annulus_work_counts_obstacles():
    # the tracer counts an annulus sampler's work as the length of its first array: the round's obstacles
    tracer = _load_tracer()
    rngs = [stream(26, i) for i in range(5)]
    rounds = (procsim.sample_boolean_annulus(3, 1.0, FixedRadius(0.5), 0.5, [1.5] * 5, rngs),
              procsim.sample_hyperplane_annulus(3, 1.0, 0.5, [1.5] * 5, rngs))
    for out in rounds:
        assert tracer._first_len(None, out) == out[-1].sum() > len(rngs)
