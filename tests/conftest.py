"""Shared fixtures: stock maps and potentials reused across the suite.

Maps are session-scoped so cylinder tables accumulate once per run.
"""

from __future__ import annotations

import math

import pytest

from dimspectra import (
    doubling_map,
    farey_map,
    golden_mean_map,
    linear_full_branch_map,
    locally_constant,
    manneville_pomeau_map,
)
from dimspectra.cli import build_map_from, parse_config

LOG2 = math.log(2.0)


@pytest.fixture(scope="session")
def doubling():
    return doubling_map()


@pytest.fixture(scope="session")
def golden():
    return golden_mean_map()


@pytest.fixture(scope="session")
def mp():
    return manneville_pomeau_map(0.5)


@pytest.fixture(scope="session")
def farey():
    return farey_map()


@pytest.fixture(scope="session")
def two_slopes():
    return linear_full_branch_map([2.0, 4.0])


def linear_markov_map():
    """A `linear_markov` map (built through the config schema) with a
    decreasing branch and a non-full transition matrix: branch 2's image
    [0, 1/2] covers domain 0 only."""
    branches = [
        {"domain": [0.0, 0.5], "image": [0.0, 1.0]},
        {"domain": [0.5, 0.75], "image": [0.0, 1.0], "orientation": -1},
        {"domain": [0.75, 1.0], "image": [0.0, 0.5]},
    ]
    return build_map_from(parse_config({
        "map": {"family": "linear_markov", "branches": branches},
        "potential": {"kind": "geometric", "coefficient": -1.0},
        "command": {"name": "validate"},
        "output": {},
    }))


@pytest.fixture(scope="session")
def markov():
    return linear_markov_map()


@pytest.fixture(scope="session")
def uniform_phi():
    # log of the (1/2, 1/2) weight vector; normalized for the doubling map
    return locally_constant({(0,): -LOG2, (1,): -LOG2})


@pytest.fixture(scope="session")
def bernoulli_phi():
    # log of the (1/4, 3/4) weight vector
    return locally_constant({(0,): math.log(0.25), (1,): math.log(0.75)})


@pytest.fixture(scope="session")
def zero_phi():
    return locally_constant({(0,): 0.0, (1,): 0.0})
