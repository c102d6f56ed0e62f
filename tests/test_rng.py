"""rng.streams yields bit for bit the generators of stream(seed, *prefix, i), lazily, and fanout.map_rounds
slices them into rounds."""

import re
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from hypervis import fanout, rng, visibility
from hypervis.rng import stream, streams

from conftest import STREAM_DERIVATIONS

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
    gens = list(streams(seed, *prefix, count=35))
    assert len(gens) == 35
    assert_same_generators(gens, seed, prefix)


@pytest.mark.parametrize("count", [0, 1, 15, 16, CHUNK - 1, CHUNK, CHUNK + 1])
def test_counts(count):
    gens = list(streams(42, 3, count=count))
    assert len(gens) == count
    assert_same_generators(gens, 42, (3,))


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_size(chunk, monkeypatch):
    monkeypatch.setattr(rng, "_CHUNK", chunk)
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
    g = next(streams(1, count=1))
    with pytest.raises(ValueError, match="generate_state"):
        g.bit_generator.seed_seq.generate_state(8, np.uint32)


@pytest.mark.parametrize("start", [0, 1, 15, 35, CHUNK - 2, CHUNK, CHUNK + 5])
def test_streams_from_start(start):
    # a worker sweeping replications start..count-1 builds only their generators, those of stream(seed, i)
    count = CHUNK + 21
    gens = list(streams(42, 3, count=count, start=start))
    assert len(gens) == count - start
    for i, g in enumerate(gens, start):
        ref = stream(42, 3, i)
        assert g.bit_generator.state == ref.bit_generator.state and g.uniform() == ref.uniform(), i


@pytest.mark.parametrize("size", [1, 7, 16, 512])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_rounds_from_start(size, k, monkeypatch):
    # a span of fanout.map_rounds from start = k * size holds the tail of the rounds from 0, generator for
    # generator, with the module's chunks and with chunks of 7 keys
    count = 3 * size + 2
    monkeypatch.setattr(fanout, "map_spans", lambda fn, count, size, work: [fn(k * size, count)])
    for chunk in (rng._CHUNK, 7):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        tail = []
        (firsts,) = fanout.map_rounds(lambda gens: tail.append(gens) or ([len(tail) - 1],), 9, count, size, 0)
        assert [len(gens) for gens in tail] == [min(size, count - first) for first in range(k * size, count, size)]
        assert list(firsts) == list(range(len(tail)))
        for i, g in enumerate((g for gens in tail for g in gens), k * size):
            assert g.bit_generator.state == stream(9, i).bit_generator.state, i


def test_negative_start_refused():
    with pytest.raises(ValueError, match=re.escape("needs start >= 0, got -1")):
        next(streams(1, count=3, start=-1))


def test_per_key_derivation_reaches_every_run(monkeypatch):
    # the tests' per-key derivation builds each generator of a round, and of the stratified estimator's runs,
    # from its own SeedSequence, where rng.streams presets a hashed state
    assert isinstance(next(streams(9, count=1)).bit_generator.seed_seq, rng._PresetState)
    STREAM_DERIVATIONS["per-key"](monkeypatch)
    gens = []
    fanout.map_rounds(lambda rngs: gens.extend(rngs) or ([0],), 9, 3, 2, 0)
    gens.append(next(visibility.streams(9, 1, count=1)))
    assert len(gens) == 4 and all(isinstance(g.bit_generator.seed_seq, np.random.SeedSequence) for g in gens)
