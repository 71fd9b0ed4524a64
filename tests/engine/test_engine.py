"""Engine-layer unit tests: topology adapters, caps, rules, batching."""

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest

from repro.baselines import (
    flooding_broadcast_times,
    push_pull_broadcast_samples,
)
from repro.core import BipsProcess, CobraProcess
from repro.core.branching import BernoulliBranching, FixedBranching, make_policy
from repro.core.cobra import default_round_cap
from repro.dynamics import (
    FrozenSequence,
    RewiringSequence,
    dynamic_cover_time_samples,
    dynamic_infection_time_samples,
)
from repro.engine import (
    BipsRule,
    CobraRule,
    PullRule,
    PushRule,
    SpreadEngine,
    WalkRule,
    as_topology,
    process_round_cap,
    walk_round_cap,
)
from repro.engine import rules
from repro.graphs import Graph, cycle_graph, petersen_graph, random_regular_graph
from repro.graphs import graph as graph_module
from repro.graphs.properties import eccentricity
from repro.parallel import plan_shards


@pytest.fixture(scope="module")
def expander():
    return random_regular_graph(40, 4, rng=2)


class TestTopology:
    def test_graph_is_its_own_topology(self, expander):
        assert as_topology(expander) is expander
        assert expander.graph_at(99) is expander

    def test_sequence_passthrough(self, expander):
        seq = FrozenSequence(expander)
        assert as_topology(seq) is seq

    def test_rejects_junk(self):
        with pytest.raises(TypeError, match="graph-sequence"):
            as_topology(42)


class TestCaps:
    """Satellite: one cap helper serves every engine (no more drift)."""

    def test_core_caps_delegate(self, expander):
        expected = process_round_cap(expander.n, expander.m, expander.dmax)
        assert default_round_cap(expander) == expected

    def test_gossip_caps_agree_with_core(self, expander):
        # push/pull previously hand-rolled a different (smaller) formula.
        for rule in (PushRule(), PullRule(), BipsRule(FixedBranching(2), 0)):
            assert rule.default_cap(expander) == default_round_cap(expander)
        assert CobraRule(FixedBranching(2)).default_cap(expander) == (
            default_round_cap(expander)
        )

    def test_walk_cap_distinct(self, expander):
        assert WalkRule(1).default_cap(expander) == walk_round_cap(
            expander.n, expander.dmax
        )


class TestPlanShardsWiring:
    """Shard plans account the rule's declared live arrays."""

    def test_rule_footprints_declared(self):
        assert BipsRule(FixedBranching(2), 0).state_arrays > CobraRule(
            FixedBranching(2)
        ).state_arrays

    def test_heavier_rule_gets_smaller_shards(self):
        n = 1024 * 1024
        cobra = plan_shards(CobraRule(FixedBranching(2)), 32, n)
        bips = plan_shards(BipsRule(FixedBranching(2), 0), 32, n)
        assert sum(cobra) == sum(bips) == 32
        assert max(bips) < max(cobra)

    def test_defaults_to_four_arrays(self):
        class Bare:
            pass

        n = 1024 * 1024
        assert plan_shards(Bare(), 40, n) == plan_shards(
            CobraRule(FixedBranching(2)), 40, n
        ) == [16, 16, 8]


class TestRuleValidation:
    def test_walk_needs_walker(self):
        with pytest.raises(ValueError, match="walker"):
            WalkRule(0)

    def test_push_fanout_validated(self):
        with pytest.raises(ValueError, match="fanout"):
            PushRule(0)


def _round_peak(rule, graph, state) -> int:
    """tracemalloc's peak over one ``rule.step`` with every run alive, in bytes."""
    alive = np.ones(state.shape[0], dtype=bool)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rule.step(graph, state, alive, np.random.default_rng(1))
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestCobraRoundMemory:
    """One COBRA round holds a window of movers and a block of actors.

    numpy reports its buffers to tracemalloc.  On ``rreg(16384, 8)`` with
    64 runs at 80% occupancy (1.7M actors at b = 2), the whole-round
    kernel peaked at 71.4 MiB (b = 2), 58.6 (b = 1.5) and 73.0 (lazy);
    the blocked round at 18.3, 16.7 and 29.7; without the broadcast
    alive mask and the k-long array of constant counts at 9.9, 15.7 and
    22.7, with every mover in one int64 array.  Taking the movers window
    by window out of the flat work mask, it peaks at 3.3, 9.2 and 16.1:
    the fixed policy's counts are a zero-stride view, where b = 1.5
    draws real ones (one int64 per mover), and a lazy round holds its
    picks, one int64 per actor.  A first round grows the sampler's
    per-thread scratch (a block's worth, kept between rounds), so it is
    not counted.
    """

    @pytest.fixture(scope="class")
    def cell(self):
        graph = random_regular_graph(16384, 8, rng=1)
        state = np.random.default_rng(0).random((64, graph.n)) < 0.8
        _round_peak(CobraRule(make_policy(2)), graph, state)
        return graph, state

    @pytest.mark.parametrize(
        "branching,lazy,bound_mib", [(2, False, 5), (1.5, False, 12), (2, True, 20)]
    )
    def test_peak_is_bounded(self, cell, branching, lazy, bound_mib):
        graph, state = cell
        peak = _round_peak(CobraRule(make_policy(branching), lazy=lazy), graph, state)
        assert peak <= bound_mib * 2**20, f"{peak / 2**20:.1f} MiB"


#: ``BipsRule.step`` over 8 rounds from a 30% random start (source 17,
#: every fifth run from the second finished), on ``rreg(300, 6)`` and a
#: snapshot of it whose vertices 3, 77, 150 and 299 lost their edges:
#: sha256 of the 8 states and the generator's final state, computed
#: before the selections were blocked over rows.
_BIPS_PINS = {
    ("b2", 1): "191b3ea91b09c9004455f426a930eb815c428e460bb4165831b931f108cb6f08",
    ("b2", 16): "acb1795b7cb6fc6bd41d18f8cf4f4c6ae8e1ebe365deab7c4a7fe9dd2335686e",
    ("b2", 512): "ba8aaa4c65031e7571f61fff8d8ec7857ef8621601ac80b9ffd955a5f57becaa",
    ("b3", 1): "f846fbef1249a149ca81e13f3e67eac4168b4894615bbda6afd810f17cb00e73",
    ("b3", 16): "641989c2c7f585924679a028641f59b32b9db5ef3b249fe4741c56defe91cc9f",
    ("b3", 512): "d6f62980b33265b7c9cc288c9629340ba51e4b481c04cf32518a3df41652f265",
    ("b1.5", 1): "8503fdaef83ee9f802e95a1f71191736da1f5627e2846ac55d204d14f1edcf51",
    ("b1.5", 16): "a78c3af1daafb6f0605c7ed27f3ec30c9a2fb4f1450ba2e0bc9dc7569c7c193e",
    ("b1.5", 512): "61b7241fe979cb53f715d5493e5c98985eeb0bbd10d036639c9e345265a1831d",
    ("lazy-b2", 1): "6a0b68e143022f53c8a01e94aa36941556990cf406dd27dd18ce50cf02cd5e9a",
    ("lazy-b2", 16): "a5bdf707645bcd8bc1e45ea95375fc0390db2d2c2ffa1ad2fc4150b3072b9560",
    ("lazy-b2", 512): "900cb89de7b1390d0544e4013c177a9f4f5ff4731101b49521ef56ab5134d26d",
    ("churned-b2", 1): "03c94d74da5bea875b51179e1ae44da0723f10634993e6e281f8235312fe61c3",
    ("churned-b2", 16): "431f48ec6bc996c333b981c030463770a0f958d1fa736375e67edf81f68bd3b4",
    ("churned-b2", 512): "090f99aa2dfbded2386f8967f0b06f5d2eb67f296e2cc08c9b921d7f8957304a",
}

_BIPS_CELLS = {
    "b2": (2, False, False),
    "b3": (3, False, False),
    "b1.5": (1.5, False, False),
    "lazy-b2": (2, True, False),
    "churned-b2": (2, False, True),
}


@pytest.fixture(scope="module")
def bips_graphs():
    regular = random_regular_graph(300, 6, rng=5)
    gone = {3, 77, 150, 299}
    edges = [e for e in regular.edge_array().tolist() if not gone & set(e)]
    return regular, Graph(300, edges, name="churned")


class TestBipsRoundMemory:
    """One BIPS round holds a bool per actor and a block of picks.

    Each selection runs over row blocks of at most ``rules._BLOCK``
    actors.  On ``rreg(4096, 8)`` with 512 runs, a b = 2 round peaked at
    50.0 MiB (82.0 with the sampler's scratch grown to ``R·n``) when it
    tiled ``R·n`` int64 picks per selection, and at 7.0 MiB blocked,
    scratch included.
    """

    @pytest.fixture(scope="class")
    def fresh_thread_round(self):
        # A new thread starts with empty sampler scratch (it is per
        # thread), so the round's own growth of it is seen and counted.
        graph = random_regular_graph(4096, 8, rng=1)
        state = np.random.default_rng(0).random((512, graph.n)) < 0.3
        state[:, 0] = True
        seen = {}

        def round_():
            seen["peak"] = _round_peak(BipsRule(make_policy(2), 0), graph, state)
            scratch = graph_module._SCRATCH
            seen["scratch"] = (scratch._f64.size, scratch._i64.size)

        thread = threading.Thread(target=round_)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and "scratch" in seen
        return seen

    def test_peak_is_bounded(self, fresh_thread_round):
        peak = fresh_thread_round["peak"]
        assert peak <= 12 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_sampler_scratch_stays_within_a_block(self, fresh_thread_round):
        assert max(fresh_thread_round["scratch"]) <= rules._BLOCK

    @pytest.mark.parametrize("block", [rules._BLOCK, 100])
    @pytest.mark.parametrize("cell", list(_BIPS_CELLS))
    @pytest.mark.parametrize("runs", [1, 16, 512])
    def test_rounds_are_pinned(self, monkeypatch, bips_graphs, block, cell, runs):
        # 100 actors a block: one row per block, each longer than the cap.
        monkeypatch.setattr(rules, "_BLOCK", block)
        branching, lazy, churned = _BIPS_CELLS[cell]
        graph = bips_graphs[churned]
        rule = BipsRule(make_policy(branching), source=17, lazy=lazy)
        state = np.random.default_rng(runs).random((runs, graph.n)) < 0.3
        state[:, 17] = True
        alive = np.arange(runs) % 5 != 1
        rng = np.random.default_rng(7)
        digest = hashlib.sha256()
        for _ in range(8):
            state = rule.step(graph, state, alive, rng)
            digest.update(state.tobytes())
        digest.update(str(rng.bit_generator.state["state"]["state"]).encode())
        assert digest.hexdigest() == _BIPS_PINS[cell, runs]


class TestEngineLoop:
    def test_result_properties(self, expander):
        engine = SpreadEngine(CobraRule(FixedBranching(2)), expander)
        state = np.zeros((3, expander.n), dtype=bool)
        state[:, 0] = True
        res = engine.run(state, np.random.default_rng(0))
        assert res.all_finished
        assert res.finished_fraction() == 1.0
        assert res.rounds_run == res.finish_times.max()

    def test_cap_leaves_unfinished(self):
        g = cycle_graph(64)
        engine = SpreadEngine(CobraRule(FixedBranching(2)), g)
        state = np.zeros((2, 64), dtype=bool)
        state[:, 0] = True
        res = engine.run(state, np.random.default_rng(0), max_rounds=2)
        assert not res.all_finished
        assert res.rounds_run == 2
        assert np.all(res.finish_times == -1)

    def test_initial_state_not_mutated(self, expander):
        engine = SpreadEngine(BipsRule(FixedBranching(2), 0), expander)
        state = np.zeros((2, expander.n), dtype=bool)
        state[:, 0] = True
        before = state.copy()
        engine.run(state, np.random.default_rng(1))
        assert np.array_equal(state, before)

    def test_on_round_sees_every_round(self, expander):
        engine = SpreadEngine(BipsRule(FixedBranching(2), 0), expander)
        state = np.zeros((1, expander.n), dtype=bool)
        state[:, 0] = True
        seen = []
        res = engine.run(
            state,
            np.random.default_rng(2),
            on_round=lambda t, g, s: seen.append((t, int(s.sum()))),
        )
        assert [t for t, _ in seen] == list(range(res.rounds_run))

    def test_bernoulli_rule_through_engine(self, expander):
        engine = SpreadEngine(CobraRule(BernoulliBranching(0.5)), expander)
        state = np.zeros((4, expander.n), dtype=bool)
        state[:, 0] = True
        res = engine.run(state, np.random.default_rng(3))
        assert res.all_finished


def _at_vertex(n, runs, vertex=0):
    """``runs`` rows occupying ``vertex`` only."""
    state = np.zeros((runs, n), dtype=bool)
    state[:, vertex] = True
    return state


class TestBatchedDynamicRunner:
    """ROADMAP satellite: R dynamic runs share one topology realisation."""

    def test_cobra_run_batch_shapes(self, expander):
        seq = RewiringSequence(expander, 6, seed=1)
        res = SpreadEngine(CobraProcess(seq).rule, seq).run(
            _at_vertex(expander.n, 8), np.random.default_rng(0), track_hits=True
        )
        assert res.finish_times.shape == (8,)
        assert res.all_finished
        assert res.hit_times.shape == (8, expander.n)
        assert np.all(res.hit_times.max(axis=1) == res.finish_times)

    def test_bips_run_batch_shapes(self, expander):
        seq = RewiringSequence(expander, 6, seed=2)
        res = SpreadEngine(BipsProcess(seq, 0).rule, seq).run(
            _at_vertex(expander.n, 5), np.random.default_rng(1), record_sizes=True
        )
        assert res.finish_times.shape == (5,)
        assert res.all_finished
        assert res.sizes.shape[0] == 5
        assert np.all(res.sizes[:, 0] == 1)

    def test_frozen_batch_equals_static_batch(self, expander):
        # The engine-level frozen anchor: same rule, same stream.
        cobra = CobraProcess(expander).rule
        state = _at_vertex(expander.n, 6)
        frozen = SpreadEngine(cobra, FrozenSequence(expander)).run(
            state, np.random.default_rng(7)
        )
        static = SpreadEngine(cobra, expander).run(state, np.random.default_rng(7))
        assert np.array_equal(frozen.finish_times, static.finish_times)

        bips = BipsProcess(expander, 0).rule
        frozen_b = SpreadEngine(bips, FrozenSequence(expander)).run(
            state, np.random.default_rng(8)
        )
        static_b = SpreadEngine(bips, expander).run(state, np.random.default_rng(8))
        assert np.array_equal(frozen_b.finish_times, static_b.finish_times)

    def test_batch_samplers_deterministic(self, expander):
        seq = RewiringSequence(expander, 8, seed=1)
        a = dynamic_cover_time_samples(seq, 10, seed=42)
        b = dynamic_cover_time_samples(seq, 10, seed=42)
        c = dynamic_cover_time_samples(seq, 10, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        ia = dynamic_infection_time_samples(seq, 6, seed=5)
        ib = dynamic_infection_time_samples(seq, 6, seed=5)
        assert np.array_equal(ia, ib)


class TestBatchedBaselines:
    @pytest.mark.parametrize("runs", [1, 8, 9, 257])
    def test_flooding_batch_equals_eccentricities(self, flooding_graph, runs):
        # Eight runs share a byte plane: 8 fill one, 9 and 257 spill over.
        g = flooding_graph
        starts = np.random.default_rng(runs).integers(0, g.n, size=runs)
        starts[runs // 2] = starts[0]  # a repeated start
        times = flooding_broadcast_times(g, starts)
        assert times.tolist() == [eccentricity(g, int(s)) for s in starts]

    def test_flooding_batch_validation(self, expander):
        with pytest.raises(ValueError):
            flooding_broadcast_times(expander, np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            flooding_broadcast_times(expander, np.array([expander.n]))

    def test_push_pull_samples(self):
        g = petersen_graph()
        s = push_pull_broadcast_samples(g, runs=12, rng=3)
        assert s.shape == (12,)
        assert np.all(s >= 1)

    def test_batched_gossip_matches_single_distribution(self, expander):
        # Batched sampler vs one run per call: same distribution.
        from repro.baselines import push_broadcast_samples

        batch = push_broadcast_samples(expander, runs=120, rng=5)
        single = np.concatenate(
            [push_broadcast_samples(expander, runs=1, rng=900 + i) for i in range(120)]
        )
        se = np.sqrt(batch.var(ddof=1) / 120 + single.var(ddof=1) / 120)
        assert abs(batch.mean() - single.mean()) < 4 * se

    def test_isolated_vertices_in_batch_bips(self):
        # dmin == 0 batch path: isolated vertices stay uninfected.
        g = Graph(4, [(0, 1)], name="pair-plus-isolated")
        seq = FrozenSequence(g)
        res = SpreadEngine(BipsProcess(seq, 0).rule, seq, "all-active").run(
            _at_vertex(g.n, 3), np.random.default_rng(0), max_rounds=30
        )
        assert res.all_finished  # {0, 1} is the present set
