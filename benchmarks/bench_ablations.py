"""Design-choice ablation benchmarks.

Times the alternatives behind the library's two main engine decisions:

* batched multi-run COBRA vs a Python loop of single runs — the
  vectorised batch engine is the design the library commits to;
* dense vs sparse spectral path around the `_DENSE_LIMIT` crossover.
"""

import numpy as np
import pytest

from repro.core import CobraProcess
from repro.engine import SpreadEngine
from repro.graphs import random_regular_graph
from repro.graphs.spectral import random_walk_spectrum, second_eigenvalue


@pytest.fixture(scope="module")
def graph():
    return random_regular_graph(512, 8, rng=7)


RUNS = 64


def test_bench_cover_batched(benchmark, graph):
    engine = SpreadEngine(CobraProcess(graph).rule, graph)

    def run():
        rng = np.random.default_rng(1)
        state = np.zeros((RUNS, graph.n), dtype=bool)
        state[:, 0] = True
        return engine.run(state, rng).finish_times

    times = benchmark(run)
    assert times.shape == (RUNS,)
    assert np.all(times > 0)


def test_bench_cover_single_loop(benchmark, graph):
    proc = CobraProcess(graph)

    def run():
        rng = np.random.default_rng(1)
        return np.array([proc.run(0, rng).cover_time for _ in range(RUNS)])

    times = benchmark(run)
    assert times.shape == (RUNS,)


def test_bench_spectral_dense(benchmark):
    g = random_regular_graph(512, 8, rng=3)  # below the dense limit
    val = benchmark(lambda: float(np.abs(random_walk_spectrum(g)[1])))
    assert 0 < val < 1


def test_bench_spectral_sparse(benchmark):
    g = random_regular_graph(768, 8, rng=3)  # above the dense limit
    val = benchmark(second_eigenvalue, g)
    assert 0 < val < 1
