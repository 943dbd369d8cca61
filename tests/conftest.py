import tempfile

import pytest
from hypothesis import configuration

from dstgap import build_instance, subset_objects, zk_objects

# Hypothesis caches the constants it reads from local modules in its home
# directory, ./.hypothesis by default, while pytest collects the tests; a
# temporary home keeps a test run from leaving files behind.
_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory()
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture(scope="session")
def zk4_objects():
    return zk_objects(4)


@pytest.fixture(scope="session")
def zk4_instance(zk4_objects):
    return build_instance(zk4_objects)


@pytest.fixture(scope="session")
def zk9_objects():
    return zk_objects(9)


@pytest.fixture(scope="session")
def zk9_instance(zk9_objects):
    return build_instance(zk9_objects)


@pytest.fixture(scope="session")
def subset_m6_objects():
    return subset_objects(6, 2, 1)


@pytest.fixture(scope="session")
def subset_m6_instance(subset_m6_objects):
    return build_instance(subset_m6_objects)


@pytest.fixture(scope="session")
def subset_m4_instance():
    return build_instance(subset_objects(4, 2, 0))


@pytest.fixture(scope="session")
def subset_m5_instance():
    return build_instance(subset_objects(5, 2, 0))
