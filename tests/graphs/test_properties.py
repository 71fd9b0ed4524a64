"""Structural property tests."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    diameter,
    eccentricities,
    eccentricity,
    grid_graph,
    hypercube_graph,
    is_bipartite,
    path_graph,
    petersen_graph,
    star_graph,
    summarize,
)


class TestDiameter:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(10), 9),
            (cycle_graph(10), 5),
            (cycle_graph(11), 5),
            (complete_graph(6), 1),
            (star_graph(8), 2),
            (hypercube_graph(5), 5),
            (grid_graph([4, 6]), 8),
        ],
    )
    def test_known_diameters(self, graph, expected):
        assert diameter(graph) == expected

    def test_single_vertex(self):
        assert diameter(Graph(1, [])) == 0

    def test_double_sweep_on_tree_is_exact(self):
        g = path_graph(64)
        assert diameter(g, exact_limit=10) == 63  # heuristic branch

    def test_eccentricity(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_eccentricity_disconnected_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="disconnected"):
            eccentricity(g, 0)

    @pytest.mark.parametrize(
        "graph", [Graph(3, [(0, 1)]), Graph(3, [(1, 2)]), Graph(4, [(0, 1), (2, 3)])]
    )
    def test_diameter_disconnected_raises(self, graph):
        with pytest.raises(ValueError, match="graph is disconnected; eccentricity undefined"):
            diameter(graph)

    @pytest.mark.parametrize(
        "graph",
        [path_graph(9), star_graph(70), grid_graph([5, 7]), petersen_graph()],
        ids=lambda g: g.name,
    )
    def test_eccentricities_match_one_bfs_per_start(self, graph):
        starts = np.array([graph.n - 1, 0, 3, 3])
        expected = [eccentricity(graph, int(s)) for s in starts]
        assert eccentricities(graph, starts).tolist() == expected
        every = eccentricities(graph, np.arange(graph.n))
        assert every.tolist() == [eccentricity(graph, u) for u in range(graph.n)]


class TestBipartite:
    def test_even_structures(self):
        assert is_bipartite(path_graph(7))
        assert is_bipartite(cycle_graph(8))
        assert is_bipartite(hypercube_graph(4))
        assert is_bipartite(grid_graph([3, 3]))

    def test_odd_structures(self):
        assert not is_bipartite(cycle_graph(7))
        assert not is_bipartite(complete_graph(3))
        assert not is_bipartite(petersen_graph())

    def test_disconnected(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])  # triangle component
        assert not is_bipartite(g)


class TestComponents:
    def test_connected_single_component(self, petersen):
        comps = connected_components(petersen)
        assert len(comps) == 1
        assert comps[0].shape == (10,)

    def test_multiple_components(self):
        g = Graph(6, [(0, 1), (2, 3)])
        comps = connected_components(g)
        sizes = sorted(c.shape[0] for c in comps)
        assert sizes == [1, 1, 2, 2]


class TestSummaries:
    def test_summarize(self, q4):
        s = summarize(q4)
        assert s.n == 16
        assert s.regular
        assert s.bipartite
        assert s.diameter == 4
        row = s.row()
        assert row["graph"] == "hypercube-4"
        assert row["diam"] == 4
