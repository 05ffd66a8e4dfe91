import numpy as np
import pytest
from hypothesis import settings

from rispaces.config import Resolution
from rispaces.rearrangement import Char, PowerLog, discretize_model

# `--hypothesis-profile=ci` draws the same examples on every run and prints a
# failing one as a blob that @reproduce_failure replays; local runs draw anew
settings.register_profile("ci", derandomize=True, print_blob=True)

# unit tests run on a reduced resolution; the acceptance suite uses defaults
FAST = Resolution(panels=200, sup_count=1024, k_nodes=100)


@pytest.fixture(scope="session")
def one():
    return discretize_model(PowerLog(0.0, 0.0), FAST.u_max, FAST.panels)


@pytest.fixture(scope="session")
def chi_quarter():
    return discretize_model(Char(0.25), FAST.u_max, FAST.panels)


@pytest.fixture(scope="session")
def chi_half():
    return discretize_model(Char(0.5), FAST.u_max, FAST.panels)


@pytest.fixture(scope="session")
def power_quarter():
    return discretize_model(PowerLog(0.25, 0.0), FAST.u_max, 600)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
