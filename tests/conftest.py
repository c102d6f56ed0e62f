import dataclasses
import math
import os

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


def ks_statistic(samples, cdf):
    """Sup distance between the empirical CDF of samples and a model CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = cdf(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


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


# Ways rng.streams can derive a run's generators; each must give bit for bit the same results.
STREAM_DERIVATIONS = {
    "per-key": {"_MIN_BATCH": math.inf},  # every generator from stream(seed, i) alone
    "chunks-of-7": {"_CHUNK": 7, "_MIN_BATCH": 1},  # every run hashed in vectorized chunks of 7 keys
}


def _comparable(result):
    """A record without its runtime_ms, or a tuple of arrays as lists."""
    if dataclasses.is_dataclass(result):
        return dataclasses.replace(result, runtime_ms=0.0)
    return [np.asarray(a).tolist() for a in result]


def assert_same_under_every_derivation(call, monkeypatch):
    """call() gives the same result, runtime_ms aside, under each of STREAM_DERIVATIONS."""
    expected = _comparable(call())
    for name, settings in STREAM_DERIVATIONS.items():
        with monkeypatch.context() as m:
            for attr, value in settings.items():
                m.setattr(rng_module, attr, value)
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
