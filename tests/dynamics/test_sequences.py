"""GraphSequence providers: determinism, invariants, the round held."""

import numpy as np
import pytest

from repro.dynamics import (
    ChurnSequence,
    EdgeMarkovianSequence,
    FrozenSequence,
    GraphSequence,
    RewiringSequence,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
)

UNREACHABLE = np.iinfo(np.int64).max


@pytest.fixture(scope="module")
def expander():
    return random_regular_graph(48, 4, rng=11)


class TestFrozenSequence:
    def test_constant_and_identical_object(self, expander):
        seq = FrozenSequence(expander)
        assert seq.graph_at(0) is expander
        assert seq.graph_at(10_000) is expander
        assert seq.n == expander.n

    def test_negative_round_rejected(self, expander):
        with pytest.raises(ValueError, match=">= 0"):
            FrozenSequence(expander).graph_at(-1)


class TestRoundHeld:
    """A sequence serves the round it is at; any other round is a miss."""

    def test_hold_step_and_replay(self, expander):
        seq = RewiringSequence(expander, 4, seed=2)
        g3 = seq.graph_at(3)
        assert seq.graph_at(3) is g3  # the round held
        seq.graph_at(5)  # a later round steps the chain
        assert seq.graph_at(3) == g3  # an earlier one replays from round 0
        assert seq.cache_info == {"hits": 1, "misses": 3}

    def test_snapshot_of_another_size_rejected(self):
        class Growing(GraphSequence):
            def _materialize(self, t):
                return complete_graph(5 if t == 0 else 6)

        seq = Growing(5, "growing")
        assert seq.graph_at(0).n == 5
        with pytest.raises(ValueError, match="n=6, expected 5"):
            seq.graph_at(1)


class TestEdgeMarkovian:
    def test_round_zero_is_base(self, expander):
        seq = EdgeMarkovianSequence(expander, 0.01, 0.1, seed=3)
        assert seq.graph_at(0) == expander

    def test_seeded_determinism_any_access_order(self, expander):
        a = EdgeMarkovianSequence(expander, 0.02, 0.2, seed=9)
        b = EdgeMarkovianSequence(expander, 0.02, 0.2, seed=9)
        forward = [a.graph_at(t) for t in range(6)]
        scrambled = [b.graph_at(t) for t in (5, 0, 3, 1, 4, 2)]
        for t, order in zip((5, 0, 3, 1, 4, 2), scrambled):
            assert order == forward[t]

    def test_backwards_seek_replays(self, expander):
        seq = EdgeMarkovianSequence(expander, 0.02, 0.2, seed=9)
        g4 = seq.graph_at(4)
        seq.graph_at(40)  # advance well past the cache
        assert seq.graph_at(4) == g4

    def test_rates_move_density(self, expander):
        # death=1, birth=0 empties the graph in one round.
        seq = EdgeMarkovianSequence(expander, 0.0, 1.0, seed=1)
        assert seq.graph_at(1).m == 0
        # birth=1 fills every potential edge.
        full = EdgeMarkovianSequence(expander, 1.0, 0.0, seed=1)
        n = expander.n
        assert full.graph_at(1).m == n * (n - 1) // 2

    def test_invalid_probability_rejected(self, expander):
        with pytest.raises(ValueError, match="probability"):
            EdgeMarkovianSequence(expander, 1.5, 0.1)


class TestRewiring:
    def test_degree_and_vertex_invariants(self, expander):
        seq = RewiringSequence(expander, 12, seed=5)
        for t in (1, 3, 7, 15):
            g = seq.graph_at(t)
            assert g.n == expander.n
            assert g.m == expander.m
            assert np.array_equal(g.degrees, expander.degrees)

    def test_keep_connected(self):
        # A cycle disconnects under almost any unchecked 2-swap.
        base = cycle_graph(31)
        seq = RewiringSequence(base, 8, seed=2)
        for t in range(1, 12):
            assert seq.graph_at(t).is_connected()

    def test_actually_rewires(self, expander):
        seq = RewiringSequence(expander, 12, seed=5)
        assert seq.graph_at(3) != expander

    def test_zero_swaps_reuses_snapshot_object(self, expander):
        seq = RewiringSequence(expander, 0, seed=5)
        assert seq.graph_at(5) is seq.graph_at(17)

    def test_seeded_determinism(self, expander):
        a = RewiringSequence(expander, 6, seed=13)
        b = RewiringSequence(expander, 6, seed=13)
        assert all(a.graph_at(t) == b.graph_at(t) for t in range(8))

    def test_disconnected_base_rejected(self):
        from repro.graphs import Graph

        disconnected = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            RewiringSequence(disconnected, 2, seed=0)


class TestChurn:
    @pytest.fixture(scope="class")
    def seq(self):
        base = random_regular_graph(40, 3, rng=21)
        return ChurnSequence(base, leave=0.25, rejoin=0.4, seed=17)

    def test_source_never_disconnected(self, seq):
        """The anchor stays active, attached, and in one component."""
        for t in range(30):
            g = seq.graph_at(t)
            active = seq.active_at(t)
            assert active[seq.anchor]
            assert g.degrees[seq.anchor] >= 1
            # The active set is exactly the anchor's BFS component.
            reached = g.bfs_distances(seq.anchor) < UNREACHABLE
            assert np.array_equal(reached, active)

    def test_churn_actually_happens(self, seq):
        assert any(not seq.active_at(t).all() for t in range(1, 30))

    def test_departed_vertices_keep_identity(self, seq):
        for t in range(1, 10):
            g = seq.graph_at(t)
            inactive = ~seq.active_at(t)
            assert g.n == seq.base.n
            assert np.all(g.degrees[inactive] == 0)

    def test_seeded_determinism(self):
        base = random_regular_graph(40, 3, rng=21)
        a = ChurnSequence(base, 0.25, 0.4, seed=17)
        b = ChurnSequence(base, 0.25, 0.4, seed=17)
        assert all(a.graph_at(t) == b.graph_at(t) for t in range(12))

    def test_protected_vertices_stay(self):
        base = complete_graph(12)
        seq = ChurnSequence(base, leave=0.9, rejoin=0.1, seed=1, protected=(0, 5))
        for t in range(15):
            active = seq.active_at(t)
            assert active[0] and active[5]

    def test_multi_protected_stay_connected_to_anchor(self):
        # Regression: distant protected vertices on a sparse graph must
        # never end up active-but-severed from the anchor's component.
        seq = ChurnSequence(
            cycle_graph(9), leave=0.6, rejoin=0.1, seed=3, protected=(0, 4)
        )
        for t in range(60):
            g = seq.graph_at(t)
            active = seq.active_at(t)
            assert active[0] and active[4]
            reached = g.bfs_distances(seq.anchor) < UNREACHABLE
            assert np.array_equal(reached, active), t
