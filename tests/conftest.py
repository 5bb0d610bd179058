"""Checks that hold for every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process of this one, running or
    unreaped: every fork path (the table writer's formatters, the
    simulate pool, subprocess calls) must reap what it starts."""
    yield
    if not hasattr(os, "waitpid"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else f'pid {pid}, unreaped'})")
