"""Checks that hold for every test under tests/."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """A test that leaves a child process unreaped, or still running, fails:
    `tag` and `profile` fork, and every test that runs them is checked."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
