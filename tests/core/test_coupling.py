"""Tests for the duality-proof coupling (time-reversed selection reuse)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BernoulliBranching,
    SelectionTable,
    bips_replay,
    cobra_replay,
    coupling_equivalence_holds,
)
from repro.graphs import Graph, cycle_graph, path_graph, star_graph


class TestSelectionTable:
    def test_sample_shape(self, petersen, rng):
        table = SelectionTable.sample(petersen, horizon=5, rng=rng)
        assert table.horizon == 5
        assert len(table.selections[0]) == petersen.n

    def test_selections_are_neighbors(self, petersen, rng):
        table = SelectionTable.sample(petersen, horizon=3, rng=rng)
        for t in range(3):
            for u in range(petersen.n):
                for w in table.selections[t][u]:
                    assert petersen.has_edge(u, w)

    def test_fixed_b_selection_counts(self, petersen, rng):
        table = SelectionTable.sample(petersen, horizon=2, rng=rng, branching=3)
        assert all(
            len(table.selections[t][u]) == 3
            for t in range(2)
            for u in range(petersen.n)
        )

    def test_bernoulli_counts(self, petersen, rng):
        table = SelectionTable.sample(
            petersen, horizon=4, rng=rng, branching=BernoulliBranching(0.5)
        )
        lengths = {
            len(table.selections[t][u])
            for t in range(4)
            for u in range(petersen.n)
        }
        assert lengths <= {1, 2}

    def test_lazy_selections_may_stay(self, rng):
        g = path_graph(3)
        table = SelectionTable.sample(g, horizon=30, rng=rng, lazy=True)
        stays = sum(
            w == u
            for t in range(30)
            for u in range(g.n)
            for w in table.selections[t][u]
        )
        assert stays > 5


class TestReplays:
    def test_cobra_replay_deterministic(self, petersen, rng):
        table = SelectionTable.sample(petersen, horizon=4, rng=rng)
        a = cobra_replay(table, [0])
        b = cobra_replay(table, [0])
        assert np.array_equal(a, b)

    def test_cobra_replay_start_visited(self, petersen, rng):
        table = SelectionTable.sample(petersen, horizon=1, rng=rng)
        visited = cobra_replay(table, [3, 7])
        assert visited[3] and visited[7]

    def test_bips_replay_source_infected(self, petersen, rng):
        table = SelectionTable.sample(petersen, horizon=6, rng=rng)
        infected = bips_replay(table, 2)
        assert infected[2]

    def test_star_one_round_by_hand(self, rng):
        # Star, start at the hub with horizon 1: COBRA visits exactly
        # the hub's selections.
        g = star_graph(6)
        table = SelectionTable.sample(g, horizon=1, rng=rng)
        visited = cobra_replay(table, [0])
        expected = {0} | set(table.selections[0][0])
        assert set(np.nonzero(visited)[0].tolist()) == expected


class TestEquivalence:
    @pytest.mark.parametrize("branching", [1, 2, 3, BernoulliBranching(0.4)])
    def test_equivalence_many_tables(self, branching):
        rng = np.random.default_rng(7)
        g = cycle_graph(7)
        for trial in range(100):
            table = SelectionTable.sample(
                g, horizon=1 + trial % 7, rng=rng, branching=branching
            )
            assert coupling_equivalence_holds(
                table, [trial % g.n], (trial * 5 + 1) % g.n
            )

    def test_equivalence_lazy(self):
        rng = np.random.default_rng(8)
        g = path_graph(6)
        for trial in range(60):
            table = SelectionTable.sample(g, horizon=4, rng=rng, lazy=True)
            assert coupling_equivalence_holds(table, [0], 5)


@st.composite
def coupled_cases(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(possible), max_size=6)))
    g = Graph(n, sorted(edges))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    start = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1,
            max_size=n,
            unique=True,
        )
    )
    horizon = draw(st.integers(min_value=0, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return g, source, start, horizon, seed


@given(coupled_cases())
@settings(max_examples=150, deadline=None)
def test_coupling_equivalence_property(case):
    """The proof's deterministic claim on random graphs/tables/(v, C, T)."""
    g, source, start, horizon, seed = case
    table = SelectionTable.sample(g, horizon, np.random.default_rng(seed))
    assert coupling_equivalence_holds(table, start, source)
