"""One-sort CSR build and level de-duplicating BFS: bit-identity pins.

``Graph.__init__`` builds its CSR from one sort of the doubled
``src * n + dst`` keys (no ``list()`` round-trip for ndarray input, no
``np.unique`` plus ``np.lexsort``), and ``Graph.bfs_distances``
de-duplicates each level without ``np.unique``.  The reference
functions below are the previous implementations, verbatim; the tests
require the new code to return the same arrays (values and dtypes) on
every input shape the constructor accepts, and to raise the same errors
on the inputs it rejects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, cycle_graph, path_graph
from repro.graphs.graph import _ragged_arange


def legacy_csr(n, edges):
    """The previous ``Graph.__init__`` canonicalisation, verbatim.

    Returns ``(m, indptr, indices, degrees)``.
    """
    if n <= 0:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    edge_arr = np.asarray(list(edges), dtype=np.int64)
    if edge_arr.size == 0:
        edge_arr = edge_arr.reshape(0, 2)
    if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n):
        raise ValueError("edge endpoint out of range [0, n)")
    if edge_arr.size and np.any(edge_arr[:, 0] == edge_arr[:, 1]):
        raise ValueError("self-loops are not allowed")

    # Canonicalise and deduplicate: sort each pair, unique rows.
    if edge_arr.size:
        lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        key = lo * np.int64(n) + hi
        _, keep = np.unique(key, return_index=True)
        lo, hi = lo[keep], hi[keep]
    else:
        lo = hi = np.empty(0, dtype=np.int64)

    m = int(lo.shape[0])
    # Build symmetric CSR via counting sort on the doubled edge list.
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    order = np.lexsort((dst, src))
    indices = dst[order]
    return m, indptr, indices, degrees


def legacy_bfs(graph, source):
    """The previous ``Graph.bfs_distances``, verbatim."""
    unreachable = np.iinfo(np.int64).max
    dist = np.full(graph.n, unreachable, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        # All out-neighbours of the frontier, then keep the unseen.
        starts = graph.indptr[frontier]
        counts = graph.degrees[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        flat = np.repeat(starts, counts) + _ragged_arange(counts)
        nxt = graph.indices[flat]
        nxt = nxt[dist[nxt] == unreachable]
        if nxt.size == 0:
            break
        nxt = np.unique(nxt)
        dist[nxt] = level
        frontier = nxt
    return dist


INPUT_KINDS = ("ndarray", "ndarray-int32", "list", "list-of-lists", "generator")


def as_input(kind, edges):
    """``edges`` (a list of pairs) in the container ``kind`` names."""
    if kind == "ndarray":
        return np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if kind == "ndarray-int32":
        return np.asarray(edges, dtype=np.int32).reshape(-1, 2)
    if kind == "list":
        return list(edges)
    if kind == "list-of-lists":
        return [list(e) for e in edges]
    return (e for e in edges)


def assert_matches_legacy(graph, n, edges):
    m, indptr, indices, degrees = legacy_csr(n, edges)
    assert graph.n == n and graph.m == m
    for got, want in (
        (graph.indptr, indptr),
        (graph.indices, indices),
        (graph.degrees, degrees),
    ):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable


@st.composite
def multi_edge_lists(draw, max_n=12):
    """Edge lists with repeats in both orientations, possibly empty."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not ordered:
        return n, []
    return n, draw(st.lists(st.sampled_from(ordered), max_size=3 * len(ordered)))


@given(multi_edge_lists(), st.sampled_from(INPUT_KINDS))
@settings(max_examples=200, deadline=None)
def test_csr_matches_legacy_on_every_input_kind(case, kind):
    n, edges = case
    assert_matches_legacy(Graph(n, as_input(kind, edges)), n, edges)


@given(multi_edge_lists())
@settings(max_examples=60, deadline=None)
def test_ndarray_input_is_not_mutated(case):
    n, edges = case
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    before = arr.copy()
    Graph(n, arr)
    assert np.array_equal(arr, before)


@st.composite
def unchecked_edge_lists(draw, max_n=8):
    """Pairs that may hold self-loops and out-of-range endpoints."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    endpoint = st.integers(min_value=-2, max_value=n + 1)
    return n, draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))


@given(unchecked_edge_lists(), st.sampled_from(INPUT_KINDS))
@settings(max_examples=200, deadline=None)
def test_bad_edges_raise_like_legacy(case, kind):
    n, edges = case
    try:
        legacy_csr(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            Graph(n, as_input(kind, edges))
        assert str(caught.value) == str(exc)
    else:
        assert_matches_legacy(Graph(n, as_input(kind, edges)), n, edges)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, [], "at least one vertex"),
        (3, np.array([0, 1, 2]), r"\(u, v\) pairs"),
        (3, np.zeros((2, 3), dtype=np.int64), r"\(u, v\) pairs"),
        (3, [(0, 3)], "out of range"),
        (3, np.array([[0, -1]]), "out of range"),
        (3, [(1, 1)], "self-loops"),
    ],
)
def test_malformed_input_still_raises(n, edges, message):
    with pytest.raises(ValueError, match=message):
        legacy_csr(n, edges)
    with pytest.raises(ValueError, match=message):
        Graph(n, edges)


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_single_vertex_and_empty_edge_sets(kind):
    for n in (1, 2, 5):
        g = Graph(n, as_input(kind, []))
        assert_matches_legacy(g, n, [])
        assert g.m == 0 and g.indptr.shape == (n + 1,)
    assert_matches_legacy(Graph(1, np.empty((0, 2), dtype=np.int64)), 1, [])


@st.composite
def graphs_and_sources(draw, max_n=16):
    """Random simple graphs (often disconnected) and a BFS source."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph(n, edges), draw(st.integers(min_value=0, max_value=n - 1))


@given(graphs_and_sources())
@settings(max_examples=200, deadline=None)
def test_bfs_matches_legacy_on_random_graphs(case):
    graph, source = case
    assert np.array_equal(graph.bfs_distances(source), legacy_bfs(graph, source))


@given(
    st.sampled_from([path_graph, cycle_graph]),
    st.integers(min_value=3, max_value=400),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_bfs_matches_legacy_on_long_diameters(family, n, data):
    graph = family(n)
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert np.array_equal(graph.bfs_distances(source), legacy_bfs(graph, source))


def test_bfs_disconnected_union_of_paths_and_cycles():
    # Two long paths, a cycle and an isolated vertex, interleaved.
    n = 301
    perm = np.random.default_rng(4).permutation(n)

    def chain(idx):
        return [(int(perm[a]), int(perm[b])) for a, b in zip(idx, idx[1:])]

    edges = chain(list(range(0, 120))) + chain(list(range(120, 250)))
    edges += chain(list(range(250, 300)) + [250])
    graph = Graph(n, edges)
    for source in (int(perm[0]), int(perm[125]), int(perm[260]), int(perm[300])):
        assert np.array_equal(graph.bfs_distances(source), legacy_bfs(graph, source))
    assert not graph.is_connected()
