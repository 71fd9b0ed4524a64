"""Property-based tests for the graph substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, connected_components, is_bipartite


@st.composite
def edge_lists(draw, max_n: int = 12, min_n: int = 2):
    """Random simple-graph edge lists on ``min_n`` to ``max_n`` vertices."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return n, []
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=0, max_size=len(possible))
    )
    return n, edges


class _SearchCountingGraph(Graph):
    """A graph that counts the breadth-first searches it runs."""

    def bfs_distances(self, source):
        self.searches = getattr(self, "searches", 0) + 1
        return super().bfs_distances(source)


@given(edge_lists(min_n=1))
@settings(max_examples=150, deadline=None)
def test_is_connected_is_computed_once(case):
    n, edges = case
    g = _SearchCountingGraph(n, edges)
    want = len(connected_components(Graph(n, edges))) == 1
    assert g.is_connected() == want
    assert g.searches == 1
    assert g.is_connected() == want
    assert g.searches == 1  # the second answer is the kept one


@given(edge_lists())
@settings(max_examples=120, deadline=None)
def test_degree_sum_is_twice_edges(case):
    n, edges = case
    g = Graph(n, edges)
    assert int(g.degrees.sum()) == 2 * g.m
    assert g.m == len({tuple(sorted(e)) for e in edges})


@given(edge_lists())
@settings(max_examples=120, deadline=None)
def test_adjacency_symmetric(case):
    n, edges = case
    g = Graph(n, edges)
    for u in range(n):
        for v in g.neighbors(u):
            assert g.has_edge(int(v), u)


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_csr_structure_consistent(case):
    n, edges = case
    g = Graph(n, edges)
    assert g.indptr.shape == (n + 1,)
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.indices.shape[0] == 2 * g.m
    assert np.all(np.diff(g.indptr) == g.degrees)


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_bfs_distances_are_metric_like(case):
    n, edges = case
    g = Graph(n, edges)
    dist = g.bfs_distances(0)
    big = np.iinfo(np.int64).max
    # Edge endpoints differ by at most one level (when both reachable).
    for u, v in g.edges():
        if dist[u] != big and dist[v] != big:
            assert abs(int(dist[u]) - int(dist[v])) <= 1
    # Reachable set is exactly vertex 0's component.
    comp0 = next(c for c in connected_components(g) if 0 in c.tolist())
    reachable = np.nonzero(dist != big)[0]
    assert set(reachable.tolist()) == set(comp0.tolist())


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_networkx_agreement(case):
    n, edges = case
    g = Graph(n, edges)
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    assert g.m == h.number_of_edges()
    assert is_bipartite(g) == nx.is_bipartite(h)
    assert g.is_connected() == nx.is_connected(h)


@given(edge_lists(), st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None)
def test_sampling_respects_adjacency(case, seed):
    n, edges = case
    g = Graph(n, edges)
    rng = np.random.default_rng(seed)
    vertices = np.nonzero(g.degrees > 0)[0]
    if vertices.size == 0:
        return
    draws = np.repeat(vertices, 3)
    targets = g.sample_neighbors(draws, rng)
    for u, v in zip(draws.tolist(), targets.tolist()):
        assert g.has_edge(u, v)
