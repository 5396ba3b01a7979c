"""Shared fixtures: the small buildings reused across test modules."""

import pytest

from garland.harness import get_building


@pytest.fixture(scope="session")
def b12():
    return get_building(1, 2)


@pytest.fixture(scope="session")
def b13():
    return get_building(1, 3)


@pytest.fixture(scope="session")
def b22():
    return get_building(2, 2)


@pytest.fixture(scope="session")
def b23():
    return get_building(2, 3)


@pytest.fixture(scope="session")
def shared_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("report-cache")
