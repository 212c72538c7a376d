"""Shared pytest set-up: property tests draw the same examples on every run,
with no per-example deadline, so that a slow host cannot fail them; no test
may leave a child process behind; and the ``forks`` fixture counts the
workers of `config.forked_map`, the one fan-out that eval, the reference
rebuild, degrade and acceptance criterion 5 share."""

import os
import signal
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, as a
    forked worker of `config.forked_map` would."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:   # no child, running or unreaped
        return
    # kill and reap the rest where Linux lists them: the next test starts clean
    for children in Path("/proc/self/task").glob("*/children"):
        for pid in map(int, children.read_text().split()):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pytest.fail("the test left a child process running or unreaped")


@pytest.fixture
def forks(monkeypatch):
    """The pids of every ``os.fork`` this process makes during the test."""
    fork, pids = os.fork, []

    def counted_fork():
        pid = fork()
        pids.append(pid)   # in the child the list is its own copy
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids
