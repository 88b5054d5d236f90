import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process alive or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process " + (f"{pid} unreaped" if pid else "running"))


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread alive that was not alive before it."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"the test left threads alive: {left}")


@pytest.fixture
def thread_starts(monkeypatch):
    """Record every thread started, in a list that the fixture returns.

    A threaded path that a test expects must show here: a thread already
    alive in the test process would quietly make it run serially."""
    started = []
    real_start = threading.Thread.start

    def start(self):
        real_start(self)
        started.append(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.fixture
def usable_cpus(monkeypatch):
    """A function that makes this process see *n* usable CPUs."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use
