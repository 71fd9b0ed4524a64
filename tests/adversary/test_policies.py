"""Adversary policies and the mutable topology state they operate on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    ADVERSARY_KINDS,
    AdaptiveRRIPolicy,
    AdversarialSequence,
    FrontierDigest,
    GreedyCutAdversary,
    IsolatingChurnAdversary,
    MovingSourceAdversary,
    MutableTopology,
    make_adversary,
)
from repro.core.branching import make_policy
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import Graph, cycle_graph, random_regular_graph


def _mutable(graph):
    edges = graph.edge_array()
    n = graph.n
    keys = set(
        (np.minimum(edges[:, 0], edges[:, 1]) * np.int64(n)
         + np.maximum(edges[:, 0], edges[:, 1])).tolist()
    )
    return MutableTopology(n, edges, keys, np.ones(n, dtype=bool))


def _digest(t, occupied, informed=None, alive_runs=1):
    occupied = np.asarray(occupied, dtype=bool)
    informed = (
        occupied if informed is None else np.asarray(informed, dtype=bool)
    )
    return FrontierDigest(
        t=t,
        occupied=occupied,
        informed=informed | occupied,
        total_occupied=int(occupied.sum()),
        alive_runs=alive_runs,
    )


class TestMutableTopology:
    @staticmethod
    def _row_of(topo, u, v):
        e = topo.edges
        match = ((e[:, 0] == min(u, v)) & (e[:, 1] == max(u, v))).nonzero()[0]
        assert match.size == 1
        return int(match[0])

    def test_replace_pair_and_undo_restore_state(self):
        topo = _mutable(cycle_graph(8))
        before_edges = topo.edges.copy()
        before_keys = set(topo.keys)
        # Swap edges {0,1} and {4,5} into {0,4}, {1,5}.
        i, j = self._row_of(topo, 0, 1), self._row_of(topo, 4, 5)
        token = topo.replace_pair(i, j, (0, 4), (1, 5))
        assert token is not None
        assert topo.has_edge(0, 4) and topo.has_edge(1, 5)
        assert not topo.has_edge(0, 1) and not topo.has_edge(4, 5)
        topo.undo(token)
        assert np.array_equal(topo.edges, before_edges)
        assert topo.keys == before_keys

    def test_replace_pair_rejects_self_loop_parallel_identity(self):
        topo = _mutable(cycle_graph(8))
        i = self._row_of(topo, 0, 1)
        j = self._row_of(topo, 4, 5)
        before = topo.edges.copy()
        assert topo.replace_pair(i, i, (0, 2), (1, 3)) is None  # same row
        assert topo.replace_pair(i, j, (0, 0), (1, 5)) is None  # self-loop
        # Parallel edge: the cycle already has 1-2.
        assert topo.replace_pair(i, j, (1, 2), (0, 5)) is None
        # Identity: rewriting rows to their own edges.
        k = self._row_of(topo, 1, 2)
        assert topo.replace_pair(i, k, (0, 1), (1, 2)) is None
        assert np.array_equal(topo.edges, before)

    def test_connectivity_tracks_active_mask(self):
        topo = _mutable(cycle_graph(6))
        assert topo.connected()
        topo.deactivate([2])  # a cycle minus one vertex is a path
        assert topo.connected()
        topo.deactivate([4])  # two vertices gone: the path splits
        assert not topo.connected()
        topo.reactivate([2, 4])
        assert topo.connected()

    def test_frontier_degrees_count_active_neighbours(self):
        topo = _mutable(cycle_graph(6))
        mask = np.zeros(6, dtype=bool)
        mask[[0, 1]] = True
        fdeg = topo.frontier_degrees(mask)
        # Vertex 0 and 1 border each other; 2 borders 1; 5 borders 0.
        assert fdeg.tolist() == [1, 1, 1, 0, 0, 1]
        topo.deactivate([1])
        assert topo.frontier_degrees(mask).tolist() == [0, 0, 0, 0, 0, 1]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_reaches_tracks_every_mutation(self, data):
        # The queries walk a CSR that the mutators patch or drop; they
        # must always agree with a search of a CSR built afresh.
        n = data.draw(st.integers(min_value=4, max_value=12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # Sparse, so that swaps and their undos often change connectivity.
        edges = sorted(
            set(data.draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=n)))
        )
        topo = _mutable(Graph(n, edges))
        vertex = st.integers(min_value=0, max_value=n - 1)
        tokens = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            op = data.draw(st.sampled_from(["swap", "replace", "undo", "churn"]))
            m = topo.edges.shape[0]
            i, j = data.draw(st.tuples(*[st.integers(0, m - 1)] * 2))
            (a, b), (c, d) = topo.edges[i].tolist(), topo.edges[j].tolist()
            if op == "swap":
                token = topo.replace_pair(i, j, (a, c), (b, d))
            elif op == "replace":
                token = topo.replace_pair(
                    i, j, data.draw(st.tuples(vertex, vertex)),
                    data.draw(st.tuples(vertex, vertex)),
                )
            elif op == "undo" and tokens:
                topo.undo(tokens.pop())
                token = None
            else:
                x = data.draw(vertex)
                (topo.reactivate if not topo.active[x] else topo.deactivate)([x])
                tokens.clear()  # undo is only defined right after a swap
                token = None
            if token is not None:
                tokens.append(token)
            fresh = _fresh(topo)
            for x in range(n):
                component = fresh.component_of(x)
                assert topo.component_of(x).tolist() == component.tolist()
                assert [topo.reaches(x, y) for y in range(n)] == component.tolist()

    def test_active_degrees(self):
        topo = _mutable(cycle_graph(5))
        assert topo.active_degrees().tolist() == [2] * 5
        topo.deactivate([0])
        assert topo.active_degrees().tolist() == [0, 1, 2, 2, 1]


class TestGreedyCut:
    def test_severs_boundary_and_preserves_degrees(self):
        graph = random_regular_graph(32, 4, rng=9)
        topo = _mutable(graph)
        hot = np.zeros(32, dtype=bool)
        hot[:8] = True
        before = topo.active_degrees()
        boundary_before = int(
            (hot[topo.edges[:, 0]] ^ hot[topo.edges[:, 1]]).sum()
        )
        changed = GreedyCutAdversary(8).adapt(
            topo, _digest(1, hot), np.random.default_rng(0)
        )
        assert changed
        assert np.array_equal(topo.active_degrees(), before)
        boundary_after = int(
            (hot[topo.edges[:, 0]] ^ hot[topo.edges[:, 1]]).sum()
        )
        assert boundary_after < boundary_before

    def test_budget_caps_rewired_edges(self):
        graph = random_regular_graph(32, 4, rng=9)
        hot = np.zeros(32, dtype=bool)
        hot[:8] = True
        topo = _mutable(graph)
        reference = _mutable(graph)
        GreedyCutAdversary(2).adapt(topo, _digest(1, hot), np.random.default_rng(0))
        moved = int((topo.edges != reference.edges).any(axis=1).sum())
        assert moved <= 2

    def test_keeps_connectivity(self):
        graph = random_regular_graph(32, 4, rng=9)
        topo = _mutable(graph)
        hot = np.zeros(32, dtype=bool)
        hot[:16] = True
        for t in range(1, 6):
            GreedyCutAdversary(32).adapt(
                topo, _digest(t, hot), np.random.default_rng(t)
            )
            assert topo.connected()

    def test_budget_zero_rejected_upstream(self):
        with pytest.raises(ValueError, match="budget"):
            GreedyCutAdversary(-1)


class TestIsolatingChurn:
    def test_protected_anchor_never_leaves(self):
        graph = random_regular_graph(24, 4, rng=3)
        topo = _mutable(graph)
        policy = IsolatingChurnAdversary(3, protected=(0,), downtime=2)
        hot = np.zeros(24, dtype=bool)
        hot[:12] = True
        for t in range(1, 8):
            policy.adapt(topo, _digest(t, hot), np.random.default_rng(t))
            assert topo.active[0]
            assert topo.connected()

    def test_downtime_readmits(self):
        graph = random_regular_graph(24, 4, rng=3)
        topo = _mutable(graph)
        policy = IsolatingChurnAdversary(2, protected=(0,), downtime=2)
        hot = np.ones(24, dtype=bool)
        policy.adapt(topo, _digest(1, hot), np.random.default_rng(1))
        out_first = set(np.nonzero(~topo.active)[0].tolist())
        assert out_first
        # Two rounds later with a cold frontier, the departures return.
        cold = np.zeros(24, dtype=bool)
        policy.adapt(topo, _digest(2, cold), np.random.default_rng(2))
        policy.adapt(topo, _digest(3, cold), np.random.default_rng(3))
        assert topo.active.all()

    def test_initially_out_applied_at_initialize(self):
        graph = random_regular_graph(24, 4, rng=3)
        topo = _mutable(graph)
        policy = IsolatingChurnAdversary(
            1, protected=(0,), initially_out=(5, 6)
        )
        policy.initialize(topo)
        assert not topo.active[5] and not topo.active[6]

    def test_protected_overlap_rejected(self):
        with pytest.raises(ValueError, match="protected"):
            IsolatingChurnAdversary(1, protected=(0,), initially_out=(0,))

    def test_initially_out_needs_positive_budget(self):
        # A budget-0 policy is never consulted, so its initial churn
        # could never be readmitted (and the oblivious anchor would
        # silently break): the constructor must reject it.
        with pytest.raises(ValueError, match="positive budget"):
            IsolatingChurnAdversary(0, protected=(0,), initially_out=(3,))

    def test_separated_protected_vertex_survives_the_cut_sweep(self):
        # A protected vertex can arrive already separated from the
        # anchor (the oblivious phase checks full-graph connectivity
        # only): the separation sweep must churn out unprotected
        # strays, never the protected vertex itself.
        graph = Graph(
            6, np.array([[0, 1], [1, 2], [2, 3], [4, 5]], dtype=np.int64)
        )
        topo = _mutable(graph)
        policy = IsolatingChurnAdversary(1, protected=(0, 4))
        hot = np.zeros(6, dtype=bool)
        hot[1] = True
        policy.adapt(topo, _digest(1, hot), np.random.default_rng(0))
        assert topo.active[0] and topo.active[4]  # protected stay active
        assert not topo.active[5]  # the unprotected stray churned out


class TestMovingSource:
    def test_source_cold_edges_move_into_informed_region(self):
        graph = random_regular_graph(32, 4, rng=4)
        topo = _mutable(graph)
        informed = np.zeros(32, dtype=bool)
        informed[:16] = True
        informed[0] = True
        digest = _digest(1, informed)
        e = topo.edges
        inc = (e[:, 0] == 0) | (e[:, 1] == 0)
        other = np.where(e[:, 0] == 0, e[:, 1], e[:, 0])
        cold_before = int((inc & ~digest.informed[other]).sum())
        before = topo.active_degrees()
        changed = MovingSourceAdversary(0, 8).adapt(
            topo, digest, np.random.default_rng(0)
        )
        e = topo.edges
        inc = (e[:, 0] == 0) | (e[:, 1] == 0)
        other = np.where(e[:, 0] == 0, e[:, 1], e[:, 0])
        cold_after = int((inc & ~digest.informed[other]).sum())
        if cold_before:
            assert changed and cold_after < cold_before
        assert np.array_equal(topo.active_degrees(), before)

    def test_trigger_fraction_gates_the_move(self):
        graph = random_regular_graph(32, 4, rng=4)
        topo = _mutable(graph)
        informed = np.ones(32, dtype=bool)  # nothing cold: never triggers
        assert not MovingSourceAdversary(0, 8, trigger=0.5).adapt(
            topo, _digest(1, informed), np.random.default_rng(0)
        )

    def test_bad_trigger_rejected(self):
        with pytest.raises(ValueError, match="trigger"):
            MovingSourceAdversary(0, 4, trigger=1.5)


def _fresh(topo):
    """A copy of ``topo``'s state, its CSR not yet built."""
    return MutableTopology(topo.n, topo.edges.copy(), set(topo.keys), topo.active.copy())


def _full_scan(topo) -> bool:
    """Connectivity of the active subgraph by a full scan of a fresh CSR."""
    fresh = _fresh(topo)
    idx = np.nonzero(fresh.active)[0]
    return idx.size <= 1 or bool(fresh.component_of(int(idx[0]))[fresh.active].all())


class _AuditedTopology(MutableTopology):
    """Checks every swap decision against the full connectivity scan."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.decisions: list[tuple[bool | None, bool]] = []

    def swap_keeps_connected(self, token):
        got = super().swap_keeps_connected(token)
        assert got == _full_scan(self), token
        self.decisions.append((token[-1], got))
        return got


class _FullScanTopology(MutableTopology):
    """The pre-certificate decision rule: always the full scan."""

    def swap_keeps_connected(self, token):
        return _full_scan(self)


@st.composite
def _swap_cases(draw):
    """Random graphs, connected or not, with or without churned vertices."""
    n = draw(st.integers(min_value=6, max_value=20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=3 * n)))
    if draw(st.booleans()):  # thread a random spanning path through
        order = draw(st.permutations(range(n)))
        edges |= {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    active = np.ones(n, dtype=bool)
    if draw(st.booleans()):
        out = draw(st.lists(st.integers(0, n - 1), max_size=n // 3))
        active[out] = False
    occupied = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    extra = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return {
        "n": n,
        "edges": np.asarray(sorted(edges), dtype=np.int64),
        "active": active,
        "digest": _digest(1, occupied, occupied | extra),
        "policy": draw(st.sampled_from(["greedy-cut", "moving-source"])),
        "budget": draw(st.integers(min_value=2, max_value=16)),
        "source": draw(st.integers(min_value=0, max_value=n - 1)),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }


def _topology(cls, case, told=False):
    n, edges = case["n"], case["edges"].copy()
    keys = set((edges[:, 0] * np.int64(n) + edges[:, 1]).tolist())
    topo = cls(n, edges, keys, case["active"].copy())
    if told:
        topo.connected()  # as a sequence's checked proposal knows it
    return topo


def _policy(case):
    if case["policy"] == "greedy-cut":
        return GreedyCutAdversary(case["budget"])
    return MovingSourceAdversary(case["source"], case["budget"])


class TestConnectivityCertificate:
    @given(_swap_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_decision_matches_the_full_scan(self, case):
        # Either told the start's true connectivity, as a sequence
        # does, or left to find it out.
        audited = _topology(_AuditedTopology, case, told=bool(case["seed"] % 2))
        reference = _topology(_FullScanTopology, case)
        got = _policy(case).adapt(
            audited, case["digest"], np.random.default_rng(case["seed"])
        )
        want = _policy(case).adapt(
            reference, case["digest"], np.random.default_rng(case["seed"])
        )
        assert got == want
        assert np.array_equal(audited.edges, reference.edges)
        assert audited.keys == reference.keys

    def test_certificate_is_used_once_connectivity_is_known(self):
        graph = random_regular_graph(32, 4, rng=9)
        topo = _topology(
            _AuditedTopology,
            {"n": 32, "edges": graph.edge_array(), "active": np.ones(32, bool)},
        )
        hot = np.zeros(32, dtype=bool)
        hot[:16] = True
        for t in range(1, 6):
            GreedyCutAdversary(32).adapt(topo, _digest(t, hot), np.random.default_rng(t))
        assert any(was for was, _ in topo.decisions)
        assert _full_scan(topo)

    def test_departed_endpoint_falls_back_to_the_full_scan(self):
        # A "swap" whose rows touch a departed vertex does not change
        # the active subgraph the way the certificate assumes.
        topo = _mutable(cycle_graph(8))
        topo.deactivate([0])
        rows = {tuple(r): i for i, r in enumerate(topo.edges.tolist())}
        assert _full_scan(topo) and topo.connected()
        token = topo.replace_pair(rows[(0, 1)], rows[(4, 5)], (0, 4), (1, 5))
        assert token is not None
        assert topo.swap_keeps_connected(token) == _full_scan(topo)

    @pytest.mark.parametrize("kind", ["greedy-cut", "moving-source"])
    @pytest.mark.parametrize("seq_connected", [True, False])
    @pytest.mark.parametrize("policy_connected", [True, False])
    def test_sequences_replay_the_full_scan_realisation(
        self, monkeypatch, kind, seq_connected, policy_connected
    ):
        # End to end through AdversarialSequence, which tells the policy
        # when its oblivious phase has just checked connectivity.
        base = random_regular_graph(40, 3, rng=5)
        state = np.zeros((6, base.n), dtype=bool)
        state[:, 0] = True

        def realise():
            seq = AdversarialSequence(
                base,
                make_adversary(kind, 6, keep_connected=policy_connected),
                8,
                swaps_per_round=3,
                keep_connected=seq_connected,
            )
            engine = SpreadEngine(CobraRule(make_policy(2)), seq)
            res = engine.run(state, np.random.default_rng(3), max_rounds=80)
            return res, [seq.graph_at(t) for t in range(res.rounds_run + 1)]

        got, got_graphs = realise()
        monkeypatch.setattr(
            MutableTopology, "swap_keeps_connected", _FullScanTopology.swap_keeps_connected
        )
        want, want_graphs = realise()
        assert np.array_equal(got.finish_times, want.finish_times)
        assert np.array_equal(got.final_state, want.final_state)
        assert got_graphs == want_graphs


class TestAdaptiveRRI:
    def test_burst_fires_only_on_growth(self):
        graph = random_regular_graph(32, 4, rng=6)
        policy = AdaptiveRRIPolicy(8, growth_threshold=2.0)
        topo = _mutable(graph)
        small = np.zeros(32, dtype=bool)
        small[:2] = True
        big = np.zeros(32, dtype=bool)
        big[:10] = True
        rng = np.random.default_rng(0)
        # First digest only primes the tracker.
        assert not policy.adapt(topo, _digest(1, small), rng)
        before = topo.edges.copy()
        # 2 -> 10 is 5x growth: the burst fires and rewires something.
        assert policy.adapt(topo, _digest(2, big), rng)
        assert not np.array_equal(topo.edges, before)
        before = topo.edges.copy()
        # 10 -> 10 is below threshold: no burst.
        assert not policy.adapt(topo, _digest(3, big), rng)
        assert np.array_equal(topo.edges, before)

    def test_reset_clears_tracker(self):
        policy = AdaptiveRRIPolicy(4)
        policy._prev = 7
        policy.reset()
        assert policy._prev is None


class TestRegistry:
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_make_adversary_round_trip(self, kind):
        policy = make_adversary(kind, 5, source=2)
        assert policy.name == kind
        assert policy.budget == 5
        fresh = policy.fresh()
        assert type(fresh) is type(policy)
        assert fresh is not policy

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            make_adversary("entropy-maximiser", 1)
