"""Reproducible random streams for parallel replication.

Streams are keyed by (master seed, *path), e.g. (seed, replication index,
role). Disjoint keys give statistically independent generators, and the
mapping is deterministic, so results do not depend on scheduling order.
Every key entry is a non-negative integer.

stream(seed, *path) is numpy's default_rng(SeedSequence(key)): a PCG64
generator seeded with the key's SeedSequence state. Building one costs
about 15 us on a 2-vCPU Intel Xeon VM, most of it in building the
SeedSequence, which is more than a single-ray replication's own draws.
streams() yields the generators of a run of consecutive keys (seed, *prefix,
i), bit for bit those of stream(seed, *prefix, i), at about 1.7 us each on
the same machine. It hashes the keys of a chunk of up to _CHUNK indices at
once, as numpy array operations on uint32 words, and builds each generator
only when it is asked for: memory stays O(_CHUNK) however long the run.
Results therefore do not depend on the chunk size, nor on how a run's
generators are grouped. A run may start at any index (streams' start), so
that a worker process sweeping a span of replications builds only its own
generators, bit for bit those a serial run builds for the same indices;
fanout.map_rounds, the one place that groups generators into rounds, slices
its rounds from such runs. Even a run of a few keys is hashed in one pass,
which costs about a dozen stream() calls.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and its default pool of 4 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

_CHUNK = 4096  # keys hashed by one vectorized pass


def _check_key(key: tuple) -> tuple:
    key = tuple(int(k) for k in key)
    if any(k < 0 for k in key):
        raise ValueError(f"stream key {key} has a negative entry; key entries are non-negative integers")
    return key


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator keyed by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(_check_key((seed, *path))))


class _PresetState(ISeedSequence):
    """A seed sequence whose PCG64 state was hashed in advance by _pcg64_states. A subclass, not a
    registered one: PCG64 checks isinstance(seed, ISeedSequence), which a subclass answers sooner."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for (4, np.uint64): answered before np.dtype would build a dtype for the check
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a preset stream state only answers PCG64's generate_state(4, uint64)")
        return self._state


def _words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative integer, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


class _Hash:
    """SeedSequence's multiplicative hash, whose constant advances with every word hashed."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _pcg64_states(head: list[int], indices: np.ndarray) -> np.ndarray:
    """SeedSequence(head words + [i]).generate_state(4, uint64) for each i of indices (uint32), shape (n, 4).

    The entropy hash of SeedSequence.mix_entropy and generate_state, run on
    one array per entropy and pool word; the constant head words are
    broadcast to the indices' shape.
    """
    entropy = [np.full(indices.shape, w, np.uint32) for w in head] + [indices]
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(indices.shape, np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = np.empty((len(indices), 8), np.uint32)  # the 4 uint64 state words as uint32 pairs
    state_hash = _Hash(_INIT_B, _MULT_B)
    for k in range(out.shape[1]):
        out[:, k] = state_hash(pool[k % _POOL_SIZE])
    # SeedSequence reads the words as little-endian uint64 pairs
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def streams(seed: int, *prefix: int, count: int, start: int = 0) -> Iterator[np.random.Generator]:
    """Yield stream(seed, *prefix, i) for i in range(start, count), lazily and bit for bit.

    States are hashed a chunk of up to _CHUNK indices at a time and each
    generator is built when it is asked for. Indices are hashed as one uint32
    word, so count is at most 2**32.
    """
    key = _check_key((seed, *prefix, 0))[:-1]
    if not 0 <= count <= 2**32:
        raise ValueError(f"a run of streams needs 0 <= count <= 2**32, got {count}")
    if start < 0:
        raise ValueError(f"a run of streams needs start >= 0, got {start}")
    head = [w for k in key for w in _words(k)]
    for lo in range(start, count, _CHUNK):
        for state in _pcg64_states(head, np.arange(lo, min(lo + _CHUNK, count), dtype=np.uint32)):
            yield np.random.Generator(np.random.PCG64(_PresetState(state)))
