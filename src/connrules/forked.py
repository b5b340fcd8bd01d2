"""Work split into contiguous blocks, one forked child per block: the only
code in the package that forks a child, exits one or reaps one."""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
import threading


def _blocks(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of the contiguous blocks that range(n) splits
    into for forked children, in order: one per usable CPU and at most one
    per item, or the single block (0, n) when n < 2, os.fork is missing or
    another thread is alive (a forked child holds only the forking thread,
    so a lock that another thread held would stay locked in it)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    procs = max(1, min(n, cpus)) if forkable else 1
    bounds = [n * p // procs for p in range(procs + 1)]
    return list(zip(bounds, bounds[1:]))


class ForkedBlocks:
    """work(lo, hi) for each of the _blocks(n) blocks, begun at once in
    forked children; join() returns finish(the results, in block order).

    With two blocks or more, each block gets a forked child, which runs
    with the cyclic garbage collector off (it leaves by os._exit, and a
    collection would only fault on pages it shares with this process),
    writes its result pickled to a pipe and exits 0 once all of it is
    written, 1 on every other path. With one block, join() runs it here.

    Used as a context manager, leaving the context kills and reaps every
    child that join() has not, so an exception raised before the join, or
    within it, leaves no child behind.
    """

    def __init__(self, n: int, work, finish):
        self._work = work
        self._finish = finish
        self._blocks = _blocks(n)
        self._children = []  # (block index, pid, read end of its pipe) of each child not reaped
        self._joined = False
        self._result = None
        if len(self._blocks) < 2:
            return
        try:
            for index in range(len(self._blocks)):
                self._fork(index)
        except BaseException:
            self._stop()
            raise

    def _fork(self, index: int) -> None:
        """Fork the child of block index, unless the pipe or the fork could
        not be made: join() then runs that block here."""
        try:
            r, w = os.pipe()
        except OSError:
            return
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            try:
                gc.disable()
                os.close(r)
                with open(w, "wb") as pipe:
                    pickle.dump(self._work(*self._blocks[index]), pipe)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(w)
        self._children.append((index, pid, open(r, "rb")))

    def join(self):
        """finish(results), the same object on every call. Reaps every
        child, after reading its pipe to EOF (a result can outgrow the pipe
        buffer), then runs here, in order, each block whose child did not
        exit 0 or could not be forked, so the result never depends on the
        children, and an exception that work raises here propagates as it
        is."""
        if not self._joined:
            results = {}  # block index: result, of each child that exited 0
            while self._children:
                index, pid, pipe = self._children[0]
                with pipe:
                    payload = pipe.read()
                if os.waitpid(pid, 0)[1] == 0:
                    results[index] = pickle.loads(payload)
                del self._children[0]
            self._result = self._finish([results[index] if index in results else self._work(*block)
                                         for index, block in enumerate(self._blocks)])
            self._joined = True
        return self._result

    def _stop(self) -> None:
        """Kill and reap every child that join() has not reaped."""
        for _, pid, pipe in self._children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._children.clear()

    def __enter__(self) -> ForkedBlocks:
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()
