import dataclasses
import importlib.util
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from hypervis import rng as rng_module
from hypervis.rng import stream

import hypgeom


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process behind, running or not reaped (see fanout.fork_map)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = "a child process still runs" if pid == 0 else f"child {pid} ended (status {status}) but was not reaped"
    pytest.fail(f"the test left a child process behind: {left}")


@pytest.fixture
def rng():
    return stream(20240917)


@pytest.fixture
def benchmark_workloads(monkeypatch):
    """benchmarks/workloads.py, loaded as a module: the call lists that the benchmark builds from a master seed."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hypervis_benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def ks_statistic(samples, cdf):
    """Sup distance between the empirical CDF of samples and a model CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = cdf(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def guard_amount_and_limit(message):
    """The amount and the limit that a resource guard's refusal prints, read back as floats."""
    match = re.fullmatch(r".* = (\S+) exceeds resource guard (\S+)", message.strip())
    return float(match[1]), float(match[2])


def random_point(d, rng, r_max=3.0):
    """Random hyperboloid point within distance r_max of the base point."""
    t = rng.uniform(0.0, r_max)
    u = np.zeros(d + 1)
    g = rng.standard_normal(d)
    u[1:] = g / np.linalg.norm(g)
    return hypgeom.exp_map(hypgeom.base_point(d), u, t)


def random_rotation(d, rng):
    """Haar-random d x d rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _per_key(seed, *prefix, count, start=0):
    """rng.streams by numpy's SeedSequence: every generator from stream(seed, *prefix, i) alone."""
    return (stream(seed, *prefix, i) for i in range(start, count))


def _derive_per_key(m):
    """Replace rng.streams by _per_key wherever a hypervis module binds it."""
    streams = rng_module.streams
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hypervis" and getattr(module, "streams", None) is streams:
            m.setattr(module, "streams", _per_key)


# Ways a run's generators can be derived, each applied to a monkeypatch context; each must give bit for bit
# the same results as rng.streams.
STREAM_DERIVATIONS = {
    "per-key": _derive_per_key,
    "chunks-of-7": lambda m: m.setattr(rng_module, "_CHUNK", 7),  # every run hashed in vectorized chunks of 7 keys
}


def _comparable(result):
    """A record without its runtime_ms, or a sequence of records or arrays, each comparable."""
    if dataclasses.is_dataclass(result):
        return dataclasses.replace(result, runtime_ms=0.0)
    return [_comparable(a) if dataclasses.is_dataclass(a) else np.asarray(a).tolist() for a in result]


def assert_same_under_every_derivation(call, monkeypatch):
    """call() gives the same result, runtime_ms aside, under each of STREAM_DERIVATIONS."""
    expected = _comparable(call())
    for name, derive in STREAM_DERIVATIONS.items():
        with monkeypatch.context() as m:
            derive(m)
            assert _comparable(call()) == expected, name


def record_and_values(module, call, monkeypatch):
    """call()'s record and the per-replication values it was built from, as passed to module.make_record."""
    seen = []
    make_record = module.make_record

    def spy(*args, **kwargs):
        seen.append(np.asarray(args[4]))
        return make_record(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, "make_record", spy)
        record = call()
    return record, seen[-1]
