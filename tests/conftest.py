import pytest

from carnotflow import GroupSpec, heisenberg, m3n5 as m3n5_group


@pytest.fixture(scope="session")
def heis() -> GroupSpec:
    return heisenberg()


@pytest.fixture(scope="session")
def m3n5() -> GroupSpec:
    """Step-two group with a 3d horizontal layer and two brackets."""
    return m3n5_group()
