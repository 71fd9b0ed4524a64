"""COBRA engine tests: step semantics, cover times, batch consistency."""

import numpy as np
import pytest

from repro.core import (
    CobraProcess,
    cover_time,
    cover_time_samples,
    hit_time_samples,
    make_policy,
)
from repro.core.cobra import default_round_cap
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph


def _starts(graph, runs, start=0):
    """``runs`` rows of one particle at ``start``."""
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, start] = True
    return state


def _step(graph, active, rng, branching=2, lazy=False):
    """One COBRA round on a vertex set: the rule kernel at ``R = 1``."""
    state = np.zeros((1, graph.n), dtype=bool)
    state[0, active] = True
    rule = CobraRule(make_policy(branching), lazy=lazy)
    return np.flatnonzero(rule.step(graph, state, np.ones(1, dtype=bool), rng)[0])


class TestStepSemantics:
    def test_targets_are_neighbors(self, petersen, rng):
        active = np.array([0, 5])
        nxt = _step(petersen, active, rng)
        for v in nxt.tolist():
            assert any(petersen.has_edge(u, v) for u in active.tolist())

    def test_step_returns_fresh_mask(self, k5, rng):
        state = np.ones((1, 5), dtype=bool)
        nxt = CobraRule(make_policy(2)).step(k5, state, np.ones(1, dtype=bool), rng)
        assert nxt.shape == (1, 5) and nxt.dtype == bool
        assert nxt.any()
        assert state.all()  # the rule must not mutate its input

    def test_coalescing_bounds_growth(self, k5, rng):
        # |C_{t+1}| <= b * |C_t| always (paper: doubling is the max).
        active = np.array([0])
        for _ in range(10):
            nxt = _step(k5, active, rng, branching=2)
            assert nxt.shape[0] <= 2 * active.shape[0]
            active = nxt

    def test_b1_single_walker(self, petersen, rng):
        active = np.array([0])
        for _ in range(20):
            active = _step(petersen, active, rng, branching=1)
            assert active.shape[0] == 1  # b=1 never branches

    def test_empty_active_rejected(self, petersen, rng):
        with pytest.raises(ValueError, match="nonempty"):
            CobraProcess(petersen).run(np.empty(0, dtype=np.int64), rng)

    def test_lazy_can_stay(self, rng):
        # On a path with lazy selection, a particle at an endpoint can
        # stay put; over many steps both outcomes occur.
        g = path_graph(2)
        seen = set()
        active = np.array([0])
        for _ in range(40):
            nxt = _step(g, active, rng, branching=1, lazy=True)
            seen.add(int(nxt[0]))
        assert seen == {0, 1}

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError, match="connected"):
            CobraProcess(g)


class TestRun:
    def test_complete_graph_covers_fast(self, rng):
        res = CobraProcess(complete_graph(16)).run(0, rng)
        assert res.covered
        # log2(16) = 4 is the absolute floor; anything below ~30 is sane.
        assert 4 <= res.cover_time <= 30

    def test_hit_times_consistent(self, rng):
        res = CobraProcess(cycle_graph(9)).run(0, rng, record=True)
        assert res.covered
        assert res.hit_times[0] == 0
        assert int(res.hit_times.max()) == res.cover_time
        assert np.all(res.hit_times >= 0)

    def test_record_trajectories(self, rng):
        res = CobraProcess(cycle_graph(9)).run(0, rng, record=True)
        assert res.active_sizes.shape[0] == res.rounds_run + 1
        assert res.visited_counts.shape[0] == res.rounds_run + 1
        assert res.visited_counts[0] == 1
        assert res.visited_counts[-1] == 9
        # Visited counts are non-decreasing (monotone union).
        assert np.all(np.diff(res.visited_counts) >= 0)

    def test_start_set(self, rng):
        g = path_graph(6)
        res = CobraProcess(g).run([0, 5], rng)
        assert res.covered
        assert res.hit_times[0] == 0 and res.hit_times[5] == 0

    def test_round_cap_respected(self, rng):
        res = CobraProcess(cycle_graph(64)).run(0, rng, max_rounds=2)
        assert not res.covered
        assert res.cover_time == -1
        assert res.rounds_run == 2

    def test_invalid_start(self, rng):
        with pytest.raises(ValueError):
            CobraProcess(path_graph(4)).run(7, rng)
        # Refused, not run from vertex 2.
        with pytest.raises(ValueError, match="must be an integer"):
            cover_time_samples(cycle_graph(9), start=2.9, runs=3, rng=1)

    def test_default_round_cap_generous(self):
        g = cycle_graph(32)
        assert default_round_cap(g) > 1000


class TestBatch:
    def test_batch_covers(self, rng):
        g = complete_graph(12)
        res = SpreadEngine(CobraProcess(g).rule, g).run(_starts(g, 20), rng)
        assert res.all_finished
        assert res.finished_fraction() == 1.0
        assert np.all(res.finish_times >= np.log2(12) - 1e-9)

    def test_batch_hit_times(self, rng):
        g = path_graph(5)
        res = SpreadEngine(CobraProcess(g).rule, g).run(
            _starts(g, 8), rng, track_hits=True
        )
        assert res.hit_times is not None
        assert np.all(res.hit_times[:, 0] == 0)
        assert np.all(res.hit_times.max(axis=1) == res.finish_times)

    def test_batch_respects_cap(self, rng):
        g = cycle_graph(64)
        res = SpreadEngine(CobraProcess(g).rule, g).run(
            _starts(g, 4), rng, max_rounds=2
        )
        assert not res.all_finished
        assert res.rounds_run == 2

    def test_batch_distribution_matches_single(self):
        # Same process, two engines: distributions must agree.
        g = cycle_graph(12)
        single = np.array(
            [
                CobraProcess(g).run(0, np.random.default_rng(1000 + i)).cover_time
                for i in range(150)
            ]
        )
        batch = cover_time_samples(g, 0, 150, rng=7)
        # Compare means within joint 4-sigma.
        se = np.sqrt(single.var(ddof=1) / 150 + batch.var(ddof=1) / 150)
        assert abs(single.mean() - batch.mean()) < 4 * se


class TestConvenience:
    def test_cover_time_seeded(self):
        t1 = cover_time(complete_graph(10), rng=5)
        t2 = cover_time(complete_graph(10), rng=5)
        assert t1 == t2

    def test_cover_time_cap_raises(self):
        with pytest.raises(RuntimeError, match="did not cover"):
            cover_time(cycle_graph(64), rng=1, max_rounds=2)

    def test_samples_shape_and_batching(self):
        samples = cover_time_samples(complete_graph(8), runs=25, rng=3)
        assert samples.shape == (25,)
        assert np.all(samples >= 3)  # log2(8)

    def test_hit_time_samples(self):
        hits = hit_time_samples(path_graph(4), 0, 3, runs=30, rng=2)
        assert hits.shape == (30,)
        assert np.all(hits >= 3)  # distance 3 away

    @pytest.mark.parametrize("target", [-1, 9])
    def test_hit_time_samples_rejects_invalid_target(self, target):
        # -1 must not wrap around to the last column (vertex 8).
        with pytest.raises(ValueError, match="out of range"):
            hit_time_samples(cycle_graph(9), 0, target, runs=3)

    def test_hit_time_samples_zero_runs_is_empty(self):
        hits = hit_time_samples(cycle_graph(9), 0, 4, runs=0)
        assert hits.shape == (0,) and hits.dtype == np.int64
        assert cover_time_samples(cycle_graph(9), 0, runs=0).shape == (0,)


class TestStarGraphBehaviour:
    def test_star_alternates_via_centre(self, rng):
        # From a leaf, everything must route through the hub.
        g = star_graph(8)
        nxt = _step(g, np.array([3]), rng)
        assert nxt.tolist() == [0]
