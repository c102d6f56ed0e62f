"""The one fan-out rule of the large estimates (map_spans), over processes forked from this one (fork_map).

map_rounds sweeps the rounds of visibility._map_rounds (work: rays),
intersect.estimate_intersection_density (expected grains of its windows)
and visibility.estimate_segment_crossings (expected planes), whose item i
draws from stream(seed, i). The stratified estimator calls map_spans with
batches as rounds of one (band experiments): batch b draws its bands from
streams(seed, b, ...), not from one generator per item. What a run returns
does not depend on how many processes share it.

fork_map runs the first of its calls in this process and each other call in
a child made by a bare os.fork: no process pool, whose modules alone would
lengthen every run's set-up. A child inherits the parent's memory, sends
back its result pickled through a pipe and leaves by os._exit, so it runs
none of the parent's exit handlers and flushes none of its buffers.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable

import numpy as np

from .rng import rounds

# The least work of a run that forks. A fork and its pickled result cost milliseconds: criterion 1's
# 10,000 single rays sweep in about 0.1 s, and on a 2-vCPU VM a sweep of 35,000 rays at d = 4 ran
# slower in two spans than in one.
_FORK_MIN_WORK = 2**17


def map_spans(fn: Callable[[int, int], object], count: int, size: int, work: float) -> list:
    """[fn(lo, hi) for each span], in order: count items in rounds of size, cut into W contiguous spans of
    whole rounds.

    W = min(CPUs in the affinity mask, rounds), or W = 1 (a serial run) when
    work is below _FORK_MIN_WORK or another thread runs, since a fork copies
    only the calling thread. The first span runs here and each other in a
    child (fork_map). A caller whose item i draws from its own stream gets
    the same results whatever W.
    """
    n_rounds = -(-count // size)
    workers = min(len(os.sched_getaffinity(0)), n_rounds)
    if work < _FORK_MIN_WORK or threading.active_count() > 1:
        workers = 1
    cuts = [min(count, size * (k * n_rounds // workers)) for k in range(workers + 1)]
    return fork_map(fn, list(zip(cuts, cuts[1:])))


def map_rounds(fn: Callable[[list], tuple], seed: int, count: int, size: int, work: float) -> tuple:
    """fn(rngs) for each round of rng.rounds(seed, count, size), a tuple of per-item arrays, each concatenated
    over the rounds in item order. map_spans cuts the rounds into spans by this work, and each span builds
    only its own generators."""

    def span(lo: int, hi: int) -> list[np.ndarray]:
        parts = [fn(rngs) for _, rngs in rounds(seed, hi, size, lo)]
        return [np.concatenate(p) for p in zip(*parts)]

    return tuple(np.concatenate(p) for p in zip(*map_spans(span, count, size, work)))


def fork_map(fn: Callable, spans: list[tuple]) -> list:
    """[fn(*span) for span in spans]: the first here, each other in a child forked from this process.

    A child sends back its result, or the exception it raised, and the
    exception is raised here. A child that dies without either raises
    RuntimeError with its exit status. Every child is reaped before the call
    returns, and killed first if the call fails.
    """
    children = {}  # pid: read end of its pipe, until reaped
    try:
        for span in spans[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(write, fn, span)
            os.close(write)
            children[pid] = read
        results = [fn(*spans[0])]
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            if not data:
                raise RuntimeError(
                    f"a sweep worker (pid {pid}) died without a result, exit status {os.waitstatus_to_exitcode(status)}"
                )
            done, value = pickle.loads(data)
            if not done:
                raise value
            results.append(value)
        return results
    finally:
        for pid, read in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def _child(write: int, fn: Callable, span: tuple):
    """In a forked child: send (True, fn(*span)) or (False, its exception) pickled through the pipe's write
    end, then leave by os._exit."""
    status = 1
    try:
        try:
            result = True, fn(*span)
        except BaseException as exc:
            result = False, exc
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)
