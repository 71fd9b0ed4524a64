"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)

#: The graphs flooding is checked on: a path, a star, an odd torus, a
#: random regular graph and the one-vertex graph.
FLOODING_GRAPHS = {
    "path": lambda: path_graph(12),
    "star": lambda: star_graph(9),
    "odd-torus": lambda: torus_graph([5, 7]),
    "rreg": lambda: random_regular_graph(40, 4, rng=2),
    "one-vertex": lambda: Graph(1, []),
}


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def path5() -> Graph:
    return path_graph(5)


@pytest.fixture
def cycle6() -> Graph:
    return cycle_graph(6)


@pytest.fixture
def star7() -> Graph:
    return star_graph(7)


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def petersen() -> Graph:
    return petersen_graph()


@pytest.fixture
def q4() -> Graph:
    return hypercube_graph(4)


@pytest.fixture
def expander32() -> Graph:
    return random_regular_graph(32, 3, rng=777)


@pytest.fixture(params=list(FLOODING_GRAPHS))
def flooding_graph(request) -> Graph:
    """Each of :data:`FLOODING_GRAPHS` in turn."""
    return FLOODING_GRAPHS[request.param]()
