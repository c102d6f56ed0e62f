"""rng.streams yields bit for bit the generators of stream(seed, *prefix, i), lazily."""

import re
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from hypervis import rng
from hypervis.rng import stream, streams

CHUNK = rng._CHUNK


def assert_same_generators(gens, seed, prefix):
    """Each generator has the state of stream(seed, *prefix, j) and makes its first draws."""
    for j, g in enumerate(gens):
        ref = stream(seed, *prefix, j)
        assert g.bit_generator.state == ref.bit_generator.state, (seed, prefix, j)
        assert g.uniform() == ref.uniform()
        assert g.standard_normal() == ref.standard_normal()
        assert g.poisson(3.5) == ref.poisson(3.5)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("prefix", [(), (7,), (7, 0), (7, 0, 2**32 + 9), (7, 0, 9, 1)], ids=lambda p: f"{len(p)}-words")
def test_keys(seed, prefix):
    # with the seed's 1-3 words and the index, the entropy fills 2 to 8 words, past the 4-word pool
    gens = list(streams(seed, *prefix, count=2 * rng._MIN_BATCH + 3))
    assert len(gens) == 2 * rng._MIN_BATCH + 3
    assert_same_generators(gens, seed, prefix)


@pytest.mark.parametrize("count", [0, 1, rng._MIN_BATCH - 1, rng._MIN_BATCH, CHUNK - 1, CHUNK, CHUNK + 1])
def test_counts(count):
    gens = list(streams(42, 3, count=count))
    assert len(gens) == count
    assert_same_generators(gens, 42, (3,))


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_size(chunk, monkeypatch):
    monkeypatch.setattr(rng, "_CHUNK", chunk)
    monkeypatch.setattr(rng, "_MIN_BATCH", 1)
    assert_same_generators(streams(5, count=150), 5, ())


def test_lazy():
    tracemalloc.start()
    try:
        gens = list(islice(streams(11, count=2**32), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_same_generators(gens, 11, ())
    assert peak < 128 * CHUNK  # bytes: a chunk's words and states (about 75 per key), not the run's


@pytest.mark.parametrize("key", [(-1,), (3, -2), (0, 0, -7)])
def test_negative_key_refused(key):
    with pytest.raises(ValueError, match=re.escape(f"stream key {key} has a negative entry")):
        stream(*key)
    with pytest.raises(ValueError, match=re.escape(f"stream key {key + (0,)} has a negative entry")):
        next(streams(*key, count=3))


def test_count_out_of_range_refused():
    # indices are hashed as one uint32 word, which would wrap past 2**32 - 1
    for count in (-1, 2**32 + 1):
        with pytest.raises(ValueError, match=re.escape(f"needs 0 <= count <= 2**32, got {count}")):
            next(streams(1, count=count))


def test_preset_state_serves_pcg64_only():
    g = next(streams(1, count=rng._MIN_BATCH))
    with pytest.raises(ValueError, match="generate_state"):
        g.bit_generator.seed_seq.generate_state(8, np.uint32)
