"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not.

    degenpde forks check workers, field-CSV writers and march ranges; each
    must be reaped before the call that forked it returns or raises.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process outlived the test (waitpid gave pid %d)"
                % pid)
