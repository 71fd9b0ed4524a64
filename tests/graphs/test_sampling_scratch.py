"""Scratch-buffer hot path: bit-identity of the reusable-buffer rewrite.

``Graph.sample_neighbors`` runs on grow-only per-thread scratch buffers
and ``_ragged_arange`` on a grow-only read-only ramp, instead of
per-call allocations.  These tests pin
the two numpy facts the rewrite rests on — ``Generator.random(out=buf)``
consumes the stream exactly like ``random(k)``, and int64 cast-assign
truncates exactly like ``astype`` — by comparing against inline
re-implementations of the old allocating code, across interleaved call
sizes so buffer reuse (shrinking views over a dirty buffer) is
genuinely exercised.  The same reference pins the regular-graph
offsets ``v·d + ⌊u·d⌋`` on every path that builds a graph.
"""

import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.graphs import random_regular_graph, star_graph
from repro.graphs.graph import _ragged_arange


def legacy_sample(graph, vertices, rng):
    """The pre-scratch implementation, verbatim."""
    vertices = np.asarray(vertices, dtype=np.int64)
    degs = graph.degrees[vertices]
    offsets = (rng.random(vertices.shape[0]) * degs).astype(np.int64)
    return graph.indices[graph.indptr[vertices] + offsets]


def legacy_ragged(counts):
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(starts, counts)
    return out


def test_sample_neighbors_bit_identical_across_interleaved_sizes():
    graph = random_regular_graph(256, 6, rng=np.random.default_rng(0))
    ref_rng, new_rng = np.random.default_rng(77), np.random.default_rng(77)
    sizes = [300, 1, 0, 512, 17, 512, 3, 100]  # grow, shrink, regrow
    for i, k in enumerate(sizes):
        verts = np.random.default_rng(i).integers(0, graph.n, size=k)
        expected = legacy_sample(graph, verts, ref_rng)
        got = graph.sample_neighbors(verts, new_rng)
        assert np.array_equal(expected, got), f"call {i} (k={k})"
    # the streams advanced in lockstep: same draws were consumed
    assert ref_rng.bit_generator.state == new_rng.bit_generator.state


def test_sample_neighbors_ragged_degrees():
    graph = star_graph(40)  # hub degree 39, leaves degree 1
    ref_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
    verts = np.array([0, 1, 0, 39, 0], dtype=np.int64)
    for _ in range(20):
        assert np.array_equal(
            legacy_sample(graph, verts, ref_rng),
            graph.sample_neighbors(verts, new_rng),
        )


def test_sample_neighbors_results_survive_next_call():
    """Returned arrays are owned copies, not views of the scratch."""
    graph = random_regular_graph(64, 4, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    verts = np.arange(30, dtype=np.int64)
    first = graph.sample_neighbors(verts, rng)
    snapshot = first.copy()
    graph.sample_neighbors(verts, rng)  # would clobber a view
    assert np.array_equal(first, snapshot)


def test_sample_neighbors_isolated_vertex_still_raises():
    """The guard fires before any draw: the stream must not advance."""
    from repro.graphs.graph import Graph

    g = Graph(3, [(0, 1)])  # vertex 2 isolated
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    with pytest.raises(ValueError, match="isolated"):
        g.sample_neighbors(np.array([2]), rng)
    assert rng.bit_generator.state == state_before


def test_edgeless_graph_raises_before_any_draw():
    """An edgeless graph is 0-regular: the regular path guards too."""
    from repro.graphs.graph import Graph

    g = Graph(3, [])
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    with pytest.raises(ValueError, match="isolated"):
        g.sample_neighbors(np.array([0, 2]), rng)
    assert rng.bit_generator.state == state_before
    assert g.sample_neighbors(np.empty(0, dtype=np.int64), rng).size == 0


def _rebuilt_by_decode_task(graph):
    from repro.core import make_policy
    from repro.distributed import decode_task, encode_task
    from repro.distributed.wire import GraphCache, graph_blobs
    from repro.engine import AllVertices, CobraRule
    from repro.parallel import ShardTask

    task = ShardTask(
        rule=CobraRule(make_policy(2)),
        topology=graph,
        completion=AllVertices(),
        state=np.ones((1, graph.n), dtype=bool),
        seed=np.random.SeedSequence(0),
    )
    return decode_task(encode_task(task), GraphCache(graph_blobs([task]).get)).topology


@pytest.mark.parametrize("rebuild", ["pickle", "shared-memory", "decode_task"])
def test_rebuilt_regular_graph_samples_like_the_gather(rebuild):
    """Every constructor path reads the degree bounds the sampler uses."""
    graph = random_regular_graph(128, 6, rng=np.random.default_rng(4))
    handle = None
    if rebuild == "pickle":
        back = pickle.loads(pickle.dumps(graph))
    elif rebuild == "shared-memory":
        handle = graph.to_shared()
        back = handle.attach()
    else:
        back = _rebuilt_by_decode_task(graph)
    try:
        ref_rng, new_rng = np.random.default_rng(8), np.random.default_rng(8)
        for k in (500, 3, 0, 1200):
            verts = np.random.default_rng(k).integers(0, graph.n, size=k)
            expected = legacy_sample(graph, verts, ref_rng)
            assert np.array_equal(back.sample_neighbors(verts, new_rng), expected)
        assert ref_rng.bit_generator.state == new_rng.bit_generator.state
    finally:
        if handle is not None:
            del back
            handle.unlink()
            handle.close()


def test_ragged_arange_bit_identical():
    for trial in range(25):
        counts = np.random.default_rng(trial).integers(0, 9, size=120)
        assert np.array_equal(legacy_ragged(counts), _ragged_arange(counts))


def test_ragged_arange_zero_total():
    assert _ragged_arange(np.zeros(7, dtype=np.int64)).size == 0


def test_concurrent_threads_draw_their_own_streams():
    """Scratch is per thread: concurrent samplers never share buffers.

    ``Generator.random(out=...)`` fills with the GIL released, so
    threads sharing one buffer read each other's draws (or raise
    ``IndexError`` on offsets scaled by another thread's degrees).
    More threads than cores, a 1 µs switch interval, large and varying
    call sizes: every thread must reproduce its single-threaded draws.
    """
    graph = random_regular_graph(4096, 8, rng=np.random.default_rng(3))
    sizes = [150_000, 1_000, 200_000, 40_000, 180_000, 7]
    threads_n = 2 * (os.cpu_count() or 1) + 2

    def draws(seed):
        rng = np.random.default_rng(seed)
        picks = np.random.default_rng(seed + 1000)
        out = []
        for k in sizes:
            out.append(graph.sample_neighbors(picks.integers(0, graph.n, size=k), rng))
            out.append(graph.bfs_distances(int(picks.integers(0, graph.n))))
        return out

    expected = [draws(seed) for seed in range(threads_n)]
    got: dict[int, list] = {}
    errors: list[BaseException] = []

    def worker(seed):
        try:
            got[seed] = draws(seed)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for seed in range(threads_n):
        assert len(got[seed]) == len(expected[seed])
        for i, (a, b) in enumerate(zip(got[seed], expected[seed])):
            assert np.array_equal(a, b), f"thread {seed}, call {i}"


def test_ragged_arange_output_is_mutable_copy():
    counts = np.array([4, 2, 5], dtype=np.int64)
    out = _ragged_arange(counts)
    out += 1  # must not poison the cached template
    again = _ragged_arange(counts)
    assert np.array_equal(again, legacy_ragged(counts))
