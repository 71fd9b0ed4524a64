"""Plain-int swap loop: bit-identity pin against the numpy-scalar loop.

``try_swap_round`` runs its sequential accept/reject loop on plain
Python ints taken from the two endpoint columns.  ``legacy_swap_round``
is the previous implementation, verbatim, which indexed numpy scalars
out of the edge array.  Both must return the same edges, keys and
changed flag, leave their input untouched, and consume the generator
identically — the draw stream every rewiring and adversarial sequence
replays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.providers import try_swap_round
from repro.graphs import random_regular_graph


def legacy_swap_round(edges, keys, n, swaps, rng):
    """The previous ``try_swap_round``, verbatim."""
    edges = edges.copy()
    keys = set(keys)
    m = edges.shape[0]
    pairs = rng.integers(0, m, size=(swaps, 2))
    mirror = rng.random(swaps) < 0.5
    n = np.int64(n)
    changed = False
    for (i, j), flip in zip(pairs.tolist(), mirror.tolist()):
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if flip:
            c, d = d, c
        if a == c or b == d:
            continue  # proposal creates a self-loop
        new1 = (min(a, c), max(a, c))
        new2 = (min(b, d), max(b, d))
        k1 = new1[0] * n + new1[1]
        k2 = new2[0] * n + new2[1]
        old1 = min(a, b) * n + max(a, b)
        old2 = min(c, d) * n + max(c, d)
        if {k1, k2} == {old1, old2}:
            continue  # identity proposal (edges share a vertex)
        keys.discard(old1)
        keys.discard(old2)
        if k1 == k2 or k1 in keys or k2 in keys:
            keys.add(old1)
            keys.add(old2)
            continue  # proposal creates a parallel edge
        keys.add(k1)
        keys.add(k2)
        edges[i] = new1
        edges[j] = new2
        changed = True
    return edges, keys, changed


def edge_keys(edges, n):
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return set((lo * np.int64(n) + hi).tolist())


@st.composite
def swap_states(draw, max_n=16):
    """A simple edge set with rows in either orientation, and a round."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    rows = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    edges = np.asarray(rows, dtype=np.int64)
    swaps = draw(st.integers(min_value=0, max_value=3 * len(rows)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, edges, swaps, seed


def assert_rounds_agree(n, edges, keys, swaps, ref_rng, new_rng):
    before = edges.copy()
    want = legacy_swap_round(edges, keys, n, swaps, ref_rng)
    got = try_swap_round(edges, keys, n, swaps, new_rng)
    assert got[0].dtype == want[0].dtype == np.int64
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert np.array_equal(edges, before)  # the input state is left alone
    assert ref_rng.bit_generator.state == new_rng.bit_generator.state
    return got


@given(swap_states())
@settings(max_examples=250, deadline=None)
def test_swap_round_matches_legacy(case):
    n, edges, swaps, seed = case
    assert_rounds_agree(
        n, edges, edge_keys(edges, n), swaps,
        np.random.default_rng(seed), np.random.default_rng(seed),
    )


@given(swap_states(), st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_chained_rounds_stay_in_lockstep(case, rounds):
    n, edges, swaps, seed = case
    keys = edge_keys(edges, n)
    ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(rounds):
        edges, keys, _ = assert_rounds_agree(n, edges, keys, swaps, ref_rng, new_rng)


def test_random_regular_rewiring_rounds():
    # The adversarial workload's shape: ~10% of m swaps per round.
    graph = random_regular_graph(256, 4, rng=1)
    edges = graph.edge_array()
    keys = edge_keys(edges, graph.n)
    ref_rng, new_rng = np.random.default_rng(9), np.random.default_rng(9)
    changed = 0
    for _ in range(30):
        edges, keys, flag = assert_rounds_agree(
            graph.n, edges, keys, round(0.1 * graph.m), ref_rng, new_rng
        )
        changed += flag
    assert changed == 30
