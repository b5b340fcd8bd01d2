import ast
import errno
import os
import signal
import time
from pathlib import Path

import pytest

import connrules
import connrules.forked as forked_module
from connrules.forked import ForkedBlocks
from conftest import assert_no_child_left, deadline, use_cpus

N = 5  # items; with 4 CPUs the blocks are (0, 1), (1, 2), (2, 3) and (3, 5)


def where(lo, hi):
    """The block and the pid of the process that ran it."""
    return lo, hi, os.getpid()


class TestForkedBlocks:
    """Each block runs in a forked child, and join() runs here every block
    whose child did not send its result back; either way join() returns
    finish of the results in block order, and no child is left."""

    @pytest.mark.parametrize("cpus, blocks", [
        (1, [(0, 5)]), (2, [(0, 2), (2, 5)]), (4, [(0, 1), (1, 2), (2, 3), (3, 5)]),
        (64, [(k, k + 1) for k in range(N)])])
    def test_results_come_back_in_block_order(self, monkeypatch, forks, cpus, blocks):
        use_cpus(monkeypatch, cpus)
        finished = []

        def finish(results):
            finished.append(results)
            return tuple(results)

        with ForkedBlocks(N, where, finish) as forked:
            result = forked.join()
            assert forked.join() is result
        assert finished == [list(result)]
        assert [(lo, hi) for lo, hi, _ in result] == blocks
        pids = [pid for _, _, pid in result]
        if cpus == 1:
            assert forks == [] and pids == [os.getpid()]
        else:
            assert len(forks) == len(blocks)
            assert os.getpid() not in pids and len(set(pids)) == len(blocks)
        assert_no_child_left()

    @pytest.mark.parametrize("fault, n_forks", [
        ("child killed", 4), ("second fork fails", 4), ("second pipe fails", 3)])
    def test_block_whose_child_failed_runs_here(self, monkeypatch, forks, fault, n_forks):
        """The child of block (3, 5) kills itself, or block (1, 2) gets no
        child."""
        use_cpus(monkeypatch, 4)
        here = os.getpid()
        work = where
        if fault == "child killed":
            def work(lo, hi):
                if hi == N and os.getpid() != here:
                    os.kill(os.getpid(), signal.SIGKILL)
                return where(lo, hi)
        elif fault == "second fork fails":
            fork = os.fork  # counted by forks

            def second_fails():
                if len(forks) == 1:
                    forks.append(None)
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                return fork()

            monkeypatch.setattr(os, "fork", second_fails)
        else:
            pipe, pipes = os.pipe, []

            def second_fails():
                pipes.append(None)
                if len(pipes) == 2:
                    raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
                return pipe()

            monkeypatch.setattr(os, "pipe", second_fails)
        with ForkedBlocks(N, work, list) as forked:
            result = forked.join()
        assert [(lo, hi) for lo, hi, _ in result] == [(0, 1), (1, 2), (2, 3), (3, 5)]
        here_at = [k for k, (_, _, pid) in enumerate(result) if pid == here]
        assert here_at == ([3] if fault == "child killed" else [1])
        assert len(forks) == n_forks
        assert_no_child_left()

    def test_error_in_this_process_propagates_unchanged(self, monkeypatch, forks):
        # block (2, 3) fails in its child and again here; the blocks after it
        # are not run here, and finish is not called
        use_cpus(monkeypatch, 4)
        here = os.getpid()
        ran_here = []

        def work(lo, hi):
            if os.getpid() == here:
                ran_here.append(lo)
            if lo == 2:
                try:
                    raise KeyError("inner")
                except KeyError as exc:
                    raise ValueError(f"block {lo}") from exc
            return where(lo, hi)

        def finish(results):
            raise AssertionError("finish called")

        with pytest.raises(ValueError, match="^block 2$") as raised:
            with ForkedBlocks(N, work, finish) as forked:
                forked.join()
        assert isinstance(raised.value.__cause__, KeyError)
        assert raised.value.__cause__.args == ("inner",)
        assert ran_here == [2]
        assert len(forks) == 4
        assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError("before the join"), KeyboardInterrupt()])
    def test_error_before_the_join_leaves_no_child(self, monkeypatch, forks, tmp_path, error):
        """Each child's result outgrows the pipe buffer, so a child that is
        done waits on its write until its pipe is read or closed."""
        use_cpus(monkeypatch, 2)

        def work(lo, hi):  # a child marks its block done
            (tmp_path / str(os.getpid())).touch()
            return bytes(1 << 20)

        with deadline(60), pytest.raises(type(error)) as raised:
            with ForkedBlocks(2, work, list):
                while len(list(tmp_path.iterdir())) < 2:
                    time.sleep(0.01)
                time.sleep(0.2)  # time to pickle and fill the pipe
                raise error
        assert raised.value is error
        assert len(forks) == 2
        assert_no_child_left()


def test_only_the_helper_forks_exits_or_reaps():
    """os.fork, os._exit and os.waitpid appear in forked.py alone, so any
    other forked stage goes through ForkedBlocks."""
    users = set()
    for path in sorted(Path(connrules.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "os":
                names = {node.attr}
            else:
                continue
            if names & {"fork", "_exit", "waitpid", "*"}:
                users.add(path.name)
    assert users == {Path(forked_module.__file__).name}
