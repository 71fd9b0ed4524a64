"""Sharded engine execution tests.

The contract under test: ``run_sharded`` output is bit-for-bit
identical at any worker count (the shard plan and the spawned seeds
never depend on ``workers``), and equals the serial shard-by-shard
``engine.run`` reference under the same spawning discipline — for
cover-type (COBRA), infection-type (BIPS) and position-state (walks)
rules, on static and time-evolving topologies.
"""

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.dynamics import (
    RewiringSequence,
    dynamic_cover_time_samples,
    dynamic_infection_time_samples,
)
from repro.engine import BipsRule, CobraRule, SpreadEngine, WalkRule
from repro.graphs import cycle_graph, random_regular_graph
from repro.parallel import (
    ShardTask,
    execute_shards,
    merge_shard_results,
    plan_shards,
    run_sharded,
)
from repro.stats import spawn_seeds

RUNS = 40
MAX_SHARD = 8  # force several shards even at tiny run counts


def _graph():
    return random_regular_graph(24, 4, rng=11)


def _sequence(graph):
    return RewiringSequence(graph, 2, seed=77)


def _rules():
    return {
        "cobra": CobraRule(make_policy(2)),
        "bips": BipsRule(make_policy(2), source=0),
        "walk": WalkRule(k=2),
    }


def _initial_state(rule, n):
    if isinstance(rule, WalkRule):
        return np.zeros((RUNS, rule.k), dtype=np.int64)
    state = np.zeros((RUNS, n), dtype=bool)
    state[:, 0] = True
    return state


def _run(rule, topology, workers):
    engine = SpreadEngine(rule, topology)
    state = _initial_state(rule, topology.n)
    return engine.run_sharded(
        state, 123, workers=workers, track_hits=True, max_shard=MAX_SHARD
    )


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("name", ["cobra", "bips", "walk"])
    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_identical_across_worker_counts(self, name, dynamic):
        graph = _graph()
        topology = _sequence(graph) if dynamic else graph
        rule = _rules()[name]
        reference = _run(rule, topology, workers=1)
        for workers in (2, 4):
            got = _run(rule, topology, workers=workers)
            assert got.rounds_run == reference.rounds_run
            assert np.array_equal(got.finish_times, reference.finish_times)
            assert np.array_equal(got.hit_times, reference.hit_times)
            assert np.array_equal(got.final_state, reference.final_state)

    @pytest.mark.parametrize("name", ["cobra", "bips", "walk"])
    def test_matches_serial_run_batch_reference(self, name):
        # Shard-by-shard engine.run with the same spawned seeds is the
        # definitional serial reference; run_sharded must equal it.
        graph = _graph()
        rule = _rules()[name]
        engine = SpreadEngine(rule, graph)
        state = _initial_state(rule, graph.n)
        sharded = _run(rule, graph, workers=2)

        sizes = plan_shards(rule, RUNS, graph.n, max_shard=MAX_SHARD)
        seeds = spawn_seeds(np.random.SeedSequence(123), len(sizes))
        times, lo = [], 0
        for size, seed in zip(sizes, seeds):
            res = engine.run(
                state[lo : lo + size], np.random.default_rng(seed), track_hits=True
            )
            times.append(res.finish_times)
            lo += size
        assert np.array_equal(np.concatenate(times), sharded.finish_times)


class TestTrajectoryMerging:
    def test_recorded_series_identical_and_padded(self):
        graph = _graph()
        rule = CobraRule(make_policy(2))
        engine = SpreadEngine(rule, graph)
        state = np.zeros((RUNS, graph.n), dtype=bool)
        state[:, 0] = True
        serial = engine.run_sharded(
            state, 5, workers=1, record_sizes=True, record_visited=True,
            max_shard=MAX_SHARD,
        )
        parallel = engine.run_sharded(
            state, 5, workers=3, record_sizes=True, record_visited=True,
            max_shard=MAX_SHARD,
        )
        assert serial.sizes.shape == (RUNS, serial.rounds_run + 1)
        assert np.array_equal(serial.sizes, parallel.sizes)
        assert np.array_equal(serial.visited_counts, parallel.visited_counts)
        # Terminal-value padding: every covered run's visited count ends
        # at n and is monotone along the common axis.
        assert np.all(serial.visited_counts[:, -1] == graph.n)
        assert np.all(np.diff(serial.visited_counts, axis=1) >= 0)


class TestDynamicSharding:
    @pytest.mark.parametrize(
        "sampler", [dynamic_cover_time_samples, dynamic_infection_time_samples]
    )
    def test_shared_sequence_samples_identical_across_worker_counts(self, sampler):
        # A concrete GraphSequence is one realisation every run replays;
        # the worker count picks only where the shards run.  300 runs
        # make two shards of the default plan, so the pool really runs.
        seq = _sequence(_graph())
        reference = sampler(seq, 300, seed=3)
        for workers in (1, 2):
            assert np.array_equal(sampler(seq, 300, seed=3, workers=workers), reference)


class TestPlanAndErrors:
    def test_plan_is_pure_and_covers_runs(self):
        rule = CobraRule(make_policy(2))
        plan = plan_shards(rule, 1000, 64, max_shard=128)
        assert plan == plan_shards(rule, 1000, 64, max_shard=128)
        assert sum(plan) == 1000
        assert max(plan) <= 128

    def test_byte_budget_bounds_the_shard(self):
        # 4 arrays × 2^20 vertices: 4 MiB a run, 16 runs in 64 MiB.
        rule = CobraRule(make_policy(2))
        assert plan_shards(rule, 40, 1024 * 1024) == [16, 16, 8]

    def test_at_least_one_run_per_shard(self):
        # 12 arrays × 10^7 vertices overruns the budget at one run.
        rule = BipsRule(make_policy(2), 0)
        assert plan_shards(rule, 3, 10**7) == [1, 1, 1]

    def test_single_shard_when_small(self):
        assert plan_shards(CobraRule(make_policy(2)), 10, 100) == [10]

    def test_plan_validation(self):
        rule = CobraRule(make_policy(2))
        with pytest.raises(ValueError):
            plan_shards(rule, -1, 10)
        with pytest.raises(ValueError):
            plan_shards(rule, 10, 0)

    def test_execute_shards_empty(self):
        assert execute_shards([], workers=4) == []

    def test_merge_of_nothing_is_wellformed_empty(self):
        res = merge_shard_results([])
        assert res.finish_times.shape == (0,)
        assert res.rounds_run == 0
        assert res.final_state.shape[0] == 0
        assert res.all_finished  # vacuously: no capped runs

    def test_zero_runs_plan_and_run(self):
        rule = CobraRule(make_policy(2))
        assert plan_shards(rule, 0, 64) == []
        graph = _graph()
        state = np.zeros((0, graph.n), dtype=bool)
        res = run_sharded(
            rule, graph, "all-vertices", state, 1, track_hits=True
        )
        assert res.finish_times.shape == (0,)
        assert res.final_state.shape == (0, graph.n)
        assert res.hit_times.shape == (0, graph.n)
        assert res.rounds_run == 0

    def test_fewer_shards_than_workers(self):
        # A 2-shard plan run under 8 workers must clamp the pool and
        # still merge a complete, reference-identical result.
        graph = _graph()
        rule = _rules()["cobra"]
        engine = SpreadEngine(rule, graph)
        state = _initial_state(rule, graph.n)
        reference = engine.run_sharded(state, 123, workers=1, max_shard=20)
        got = engine.run_sharded(state, 123, workers=8, max_shard=20)
        assert np.array_equal(got.finish_times, reference.finish_times)

    def test_single_task_serial_even_with_many_workers(self):
        # min(workers, tasks) == 1 must not spin up a pool: verified by
        # determinism (and implicitly by not forking for tiny jobs).
        graph = cycle_graph(9)
        rule = CobraRule(make_policy(2), lazy=True)
        state = np.zeros((4, 9), dtype=bool)
        state[:, 0] = True
        task = ShardTask(
            rule=rule,
            topology=graph,
            completion=SpreadEngine(rule, graph).completion,
            state=state,
            seed=np.random.SeedSequence(1),
        )
        (res,) = execute_shards([task], workers=8)
        assert res.finish_times.shape == (4,)
