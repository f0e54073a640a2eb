import pytest

from dynball import build_denjoy


@pytest.fixture(scope="session")
def denjoy_c():
    # shared across files: the construction is deterministic, and one
    # instance keeps every test on the same knots
    return build_denjoy(N=64)
