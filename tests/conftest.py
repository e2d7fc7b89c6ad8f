import os

import pytest

from carnotflow import GroupSpec, heisenberg, m3n5 as m3n5_group


@pytest.fixture(scope="session")
def heis() -> GroupSpec:
    return heisenberg()


@pytest.fixture(scope="session")
def m3n5() -> GroupSpec:
    """Step-two group with a 3d horizontal layer and two brackets."""
    return m3n5_group()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or
    exited and not reaped: a snapshot writer that evolve left behind, say."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left after the test (waitpid gave pid {pid}, status {status})")
