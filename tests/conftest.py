import os
import signal
from contextlib import contextmanager

import pytest


def use_cpus(monkeypatch, n: int) -> None:
    """Make os.sched_getaffinity report n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once it has run for seconds, so that
    a wait that never ends fails the test instead of hanging it."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """One entry per os.fork call made while the test runs."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls
