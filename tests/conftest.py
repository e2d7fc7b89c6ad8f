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


def open_descriptors() -> dict[str, str]:
    """{descriptor: what it refers to} of every descriptor open in this
    process.  The listing's own descriptor is closed by the time it returns,
    so a descriptor whose link no longer reads is left out."""
    found = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            found[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:
            pass
    return found


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail a test after which this process holds a descriptor it did not
    hold before: a pipe end of a forked child that was never closed, say."""
    before = open_descriptors()
    yield
    left = {fd: link for fd, link in open_descriptors().items() if before.get(fd) != link}
    if left:
        pytest.fail(f"descriptors are left open after the test: {left}")
