"""Sharded engine execution: pool transport, plans and merges.

That every tier returns the serial shard-by-shard reference is the
oracle's job (``tests/test_oracle.py``).  Here: on the pool path the
graph and the states travel through shared memory, so what is pickled
stays small and no segment outlives a call; and shard plans and merges
are well-formed at their edges.
"""

from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.engine import BipsRule, CobraRule, SpreadEngine
from repro.graphs import cycle_graph, random_regular_graph
from repro.parallel import (
    ShardTask,
    execute_shards,
    merge_shard_results,
    plan_shards,
)
from tiers import assert_same_result

RUNS = 40
MAX_SHARD = 8  # force several shards even at tiny run counts


def _graph():
    return random_regular_graph(24, 4, rng=11)


def _run(rule, graph, workers):
    engine = SpreadEngine(rule, graph)
    state = np.zeros((RUNS, graph.n), dtype=bool)
    state[:, 0] = True
    return engine.run_sharded(
        state, 123, workers=workers, track_hits=True, max_shard=MAX_SHARD
    )


class _FailingRule(CobraRule):
    """A COBRA rule whose every round raises."""

    def step(self, graph, state, alive, rng):
        raise RuntimeError("shard failed")


def _segments() -> set:
    return {path.name for path in Path("/dev/shm").glob("psm_*")}


class TestPoolByReference:
    """The pool gets handles to shared memory and small arrays, not states."""

    def test_nothing_large_is_pickled_to_the_pool(self, monkeypatch):
        # Two shards of 64 runs on 4096 vertices: 256 KiB of state and
        # 2 MiB of hit times each, none of which may be pickled.
        graph = random_regular_graph(4096, 4, rng=3)
        rule = CobraRule(make_policy(2))
        state = np.zeros((128, graph.n), dtype=bool)
        state[:, 0] = True
        assert plan_shards(rule, 128, graph.n, max_shard=64) == [64, 64]
        engine = SpreadEngine(rule, graph)
        serial = engine.run_sharded(state, 4, workers=1, track_hits=True, max_shard=64)

        sizes = []
        dumps = ForkingPickler.dumps.__func__

        def checked(cls, obj, protocol=None):
            # Forked children run this too: one that pickles a large
            # result fails the call, which is how its side is checked.
            payload = dumps(cls, obj, protocol)
            sizes.append(len(payload))
            if len(payload) >= 16 * 1024:
                raise AssertionError(f"{len(payload)} bytes pickled for the pool")
            return payload

        monkeypatch.setattr(ForkingPickler, "dumps", classmethod(checked))
        pooled = engine.run_sharded(state, 4, workers=2, track_hits=True, max_shard=64)
        assert len(sizes) >= 2  # both tasks went through the check
        assert_same_result(pooled, serial)

    @pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
    def test_no_segment_outlives_a_call(self):
        before = _segments()
        _run(CobraRule(make_policy(2)), _graph(), workers=2)
        assert _segments() - before == set()
        with pytest.raises(RuntimeError, match="shard failed"):
            _run(_FailingRule(make_policy(2)), _graph(), workers=2)
        assert _segments() - before == set()


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
