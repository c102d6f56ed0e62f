"""Calls spread over processes forked from this one, for visibility._map_rounds.

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
from typing import Callable


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
