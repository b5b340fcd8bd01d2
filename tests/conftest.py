import os

import pytest


def use_cpus(monkeypatch, n: int) -> None:
    """Make os.sched_getaffinity report n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
