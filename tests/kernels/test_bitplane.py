"""Bit-plane gossip: packing round-trips and the distribution contract.

The bit-plane rules' declared equivalence class (see
``repro/kernels/bitplane.py``) is *per-run marginal law exact, runs
within a word correlated, not bit-identical*.  The KS tests here
compare broadcast-time samples against the numpy rules using only one
run per word (runs in distinct words are independent), which is the
sampling discipline the docs prescribe.  Everything is fixed-seed, so
a pass is a pass forever.
"""

import numpy as np
import pytest

from repro.engine import PullRule, PushPullRule, PushRule, SpreadEngine
from repro.graphs import random_regular_graph, star_graph
from repro.kernels import BitPullRule, BitPushPullRule, BitPushRule
from repro.kernels.bitplane import WORD_BITS_CHOICES
from repro.stats.comparison import ks_compare

NUMPY_RULES = {
    "push": PushRule,
    "pull": PullRule,
    "push-pull": PushPullRule,
}
BIT_RULES = {
    "push": BitPushRule,
    "pull": BitPullRule,
    "push-pull": BitPushPullRule,
}


@pytest.fixture(scope="module")
def graph():
    return random_regular_graph(64, 4, rng=np.random.default_rng(3))


def one_hot(runs: int, n: int, vertex: int = 0) -> np.ndarray:
    mask = np.zeros((runs, n), dtype=bool)
    mask[:, vertex] = True
    return mask


class TestPacking:
    def test_pack_occupancy_round_trip(self):
        rng = np.random.default_rng(0)
        rule = BitPushRule(13)
        mask = rng.random((13, 40)) < 0.3
        assert np.array_equal(rule.occupancy(rule.pack(mask), 40), mask)

    def test_pack_rejects_wrong_run_count(self):
        with pytest.raises(ValueError, match="rows"):
            BitPushRule(8).pack(np.zeros((9, 10), dtype=bool))

    def test_finished_matches_dense_all(self):
        rng = np.random.default_rng(1)
        rule = BitPullRule(11)
        mask = rng.random((11, 17)) < 0.9
        mask[3] = True  # one genuinely finished run
        state = rule.pack(mask)
        assert np.array_equal(
            rule.finished(state), rule.occupancy(state, 17).all(axis=1)
        )

    def test_runs_of_is_constructor_runs(self):
        rule = BitPushPullRule(21)
        assert rule.runs_of(rule.pack(np.zeros((21, 8), dtype=bool))) == 21

    def test_invalid_word_bits_rejected(self):
        with pytest.raises(ValueError, match="word_bits"):
            BitPushRule(8, word_bits=12)

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            BitPullRule(0)

    def test_word_grouping(self):
        # 16 runs at word_bits=8 -> two one-plane words.
        assert BitPushRule(16, word_bits=8)._groups == [(0, 1), (1, 2)]
        # 16 runs at word_bits=64 -> one word holding both planes.
        assert BitPushRule(16, word_bits=64)._groups == [(0, 2)]
        assert set(WORD_BITS_CHOICES) == {8, 16, 32, 64}


class TestDegreeZero:
    def test_isolated_vertices_neither_push_nor_ask(self):
        """Degree-zero vertices (churned snapshots) are skipped, not
        sampled — the rules must not raise and must leave them dark."""
        from repro.graphs.graph import Graph

        g = Graph(5, [(0, 1), (1, 2), (0, 2)])  # vertices 3, 4 isolated
        rng = np.random.default_rng(3)
        for key, cls in BIT_RULES.items():
            rule = cls(8)
            state = rule.pack(one_hot(8, g.n))
            alive = np.ones(8, dtype=bool)
            for _ in range(6):
                state = rule.step(g, state, alive, rng)
            occ = rule.occupancy(state, g.n)
            assert occ[:, :3].all(), key
            assert not occ[:, 3:].any(), key


class TestStepSemantics:
    def test_dead_runs_frozen(self, graph):
        """Bits of non-alive runs neither spread nor grow."""
        rng = np.random.default_rng(5)
        for key, cls in BIT_RULES.items():
            rule = cls(9)
            mask = np.random.default_rng(7).random((9, graph.n)) < 0.2
            mask[:, 0] = True
            state = rule.pack(mask)
            alive = np.ones(9, dtype=bool)
            alive[[0, 4]] = False
            nxt = rule.step(graph, state, alive, rng)
            occ0, occ1 = rule.occupancy(state, graph.n), rule.occupancy(nxt, graph.n)
            assert np.array_equal(occ1[~alive], occ0[~alive]), key
            assert occ1[alive].sum() >= occ0[alive].sum(), key

    def test_informed_sets_are_monotone(self, graph):
        rng = np.random.default_rng(8)
        rule = BitPushPullRule(12, word_bits=8)
        state = rule.pack(one_hot(12, graph.n))
        alive = np.ones(12, dtype=bool)
        for _ in range(10):
            nxt = rule.step(graph, state, alive, rng)
            before = rule.occupancy(state, graph.n)
            after = rule.occupancy(nxt, graph.n)
            assert np.all(after | before == after)
            state = nxt

    def test_phantom_bits_never_ask(self):
        """Runs % 8 != 0: the unused bits of the last plane stay zero
        even under pull, whose ask mask inverts the planes."""
        g = star_graph(6)
        rng = np.random.default_rng(9)
        rule = BitPullRule(5)
        state = rule.pack(one_hot(5, g.n))
        alive = np.ones(5, dtype=bool)
        for _ in range(8):
            state = rule.step(g, state, alive, rng)
        # plane bits above run 4 must still be zero
        assert not np.any(state & ~rule._run_mask[:, None])

    def test_star_center_pushes_everywhere_in_one_round(self):
        g = star_graph(9)  # vertex 0 = hub
        rule = BitPushRule(8)
        state = rule.pack(one_hot(8, g.n, vertex=1))
        # a leaf's only neighbour is the hub: one push informs it
        nxt = rule.step(g, state, np.ones(8, dtype=bool), np.random.default_rng(0))
        occ = rule.occupancy(nxt, g.n)
        assert occ[:, 0].all()


def _bitplane_word_samples(graph, rule_key: str, invocations: int, seed: int):
    """Independent broadcast-time samples: one run per 8-bit word."""
    samples = []
    for i in range(invocations):
        runs = 64
        rule = BIT_RULES[rule_key](runs, word_bits=8)
        # drive the packed rule directly so word_bits=8 is honoured
        state = rule.pack(one_hot(runs, graph.n))
        times = np.full(runs, -1, dtype=np.int64)
        rng = np.random.default_rng(seed + i)
        t = 0
        while np.any(times < 0) and t < 500:
            alive = times < 0
            state = rule.step(graph, state, alive, rng)
            t += 1
            times[alive & rule.finished(state)] = t
        assert (times >= 0).all()
        samples.append(times[::8])  # first run of each 8-run word
    return np.concatenate(samples)


class TestDistributionEquivalence:
    @pytest.mark.parametrize("rule_key", sorted(NUMPY_RULES))
    def test_broadcast_time_law_matches_numpy(self, graph, rule_key):
        """KS on broadcast times: packed vs numpy, per declared contract."""
        engine = SpreadEngine(NUMPY_RULES[rule_key](), graph)
        ref = engine.run(one_hot(192, graph.n), np.random.default_rng(100))
        assert ref.all_finished
        bit = _bitplane_word_samples(graph, rule_key, invocations=24, seed=200)
        assert ks_compare(ref.finish_times, bit).consistent(alpha=0.01), rule_key


class TestEngineIntegration:
    """The bit-plane rules are ordinary rules: pack, run, unpack."""

    def test_engine_drives_a_packed_rule(self, graph):
        rule = BitPushPullRule(24)
        result = SpreadEngine(rule, graph).run(
            rule.pack(one_hot(24, graph.n)), np.random.default_rng(2)
        )
        assert result.all_finished
        assert result.finish_times.shape == (24,)
        assert result.final_state.shape == (3, graph.n)
        assert rule.occupancy(result.final_state, graph.n).all()

    def test_engine_bitplane_deterministic(self, graph):
        rule = BitPushRule(16)
        engine = SpreadEngine(rule, graph)
        state = rule.pack(one_hot(16, graph.n))
        a = engine.run(state, np.random.default_rng(4))
        b = engine.run(state, np.random.default_rng(4))
        assert np.array_equal(a.finish_times, b.finish_times)
        assert np.array_equal(a.final_state, b.final_state)
