"""Graph pickling tests (the process-pool shipping contract)."""

import pickle

import numpy as np
import pytest

from repro.graphs import random_regular_graph


class TestPickle:
    def test_round_trip_equal(self, petersen):
        back = pickle.loads(pickle.dumps(petersen))
        assert back == petersen
        assert back.name == petersen.name
        assert back.degrees.tolist() == petersen.degrees.tolist()

    def test_unpickled_arrays_read_only(self, petersen):
        back = pickle.loads(pickle.dumps(petersen))
        with pytest.raises(ValueError):
            back.indices[0] = 5

    def test_unpickled_graph_usable(self, petersen, rng):
        back = pickle.loads(pickle.dumps(petersen))
        targets = back.sample_neighbors(np.array([0, 1, 2]), rng)
        for u, v in zip([0, 1, 2], targets.tolist()):
            assert back.has_edge(u, v)

    def test_large_random_graph(self):
        g = random_regular_graph(256, 8, rng=1)
        assert pickle.loads(pickle.dumps(g)) == g


class TestSweepParallel:
    def test_sweep_identical_across_worker_counts(self):
        from repro.experiments.runner import sweep_cover
        from repro.graphs import complete_graph, cycle_graph

        graphs = [complete_graph(16), cycle_graph(17), complete_graph(32)]
        serial = sweep_cover(graphs, runs=10, seed=3, n_workers=1)
        parallel = sweep_cover(graphs, runs=10, seed=3, n_workers=2)
        for a, b in zip(serial, parallel):
            assert a.graph_name == b.graph_name
            assert a.mean.value == b.mean.value
            assert a.whp.value == b.whp.value
