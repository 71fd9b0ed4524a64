"""Checkpoint and resume through the result cache.

The result cache is the only checkpoint: a sharded run given a
``cache`` stores every shard it computes, and running it again serves
those shards from the cache.  So a run whose cache lost k entries
recomputes exactly those k shards, bit-identical to the uninterrupted
run, on the serial path and on the pool; and on the broker tier each
result is stored the moment the broker streams it back, while the job
is still running: a client that dies mid-job is let go at once, and
running it again serves what it stored from the cache.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.distributed import Broker, ResultCache, broker_status, run_worker
from repro.distributed.wire import (
    encode_task,
    parse_endpoint,
    recv_frame,
    send_frame,
    task_key,
)
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import hypercube_graph, random_regular_graph
from repro.parallel import ShardTask, execute_cached, execute_shards, run_shard
from repro.resilience import FaultPlan, InjectedCrash, RetryPolicy, fault_injection
from repro.stats import spawn_seeds
from repro.telemetry import get_telemetry
from tiers import assert_same_result, reap, spawn_workers


def _tasks(runs=12, max_shard=4):
    graph = hypercube_graph(4)
    rule = CobraRule(make_policy(2))
    engine = SpreadEngine(rule, graph)
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, 0] = True
    sizes = [max_shard] * (runs // max_shard)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [
        ShardTask(
            rule=rule,
            topology=graph,
            completion=engine.completion,
            state=state[lo:hi],
            seed=s,
            track_hits=True,
        )
        for lo, hi, s in zip(
            bounds[:-1], bounds[1:], spawn_seeds(99, len(sizes))
        )
    ]


def _assert_all_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_result(g, w)


def _computed(results):
    # Freshly computed shards carry their timings; cached ones do not.
    return [i for i, r in enumerate(results) if "shard" in (r.meta or {})]


class TestExecuteCheckpointed:
    def test_matches_plain_execution_and_resumes(self, tmp_path):
        tel = get_telemetry()
        tasks = _tasks()
        reference = execute_shards(tasks, workers=1)
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        first = execute_cached(tasks, 1, cache=store)
        _assert_all_same(first, reference)
        # Second invocation: everything from cache, nothing recomputed.
        hits_before = tel.counters().get("client.cache.hits", 0)
        second = execute_cached(tasks, 1, cache=store)
        assert tel.counters().get("client.cache.hits", 0) == hits_before + len(
            tasks
        )
        assert _computed(second) == []
        _assert_all_same(second, reference)

    def test_partial_manifest_recomputes_only_pending(self, tmp_path):
        # The cache is the manifest: a shard a previous run completed is
        # served from it, and only the others run.
        tasks = _tasks()
        reference = execute_shards(tasks, workers=1)
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        store.put(task_key(encode_task(tasks[0])), run_shard(tasks[0]))
        got = execute_cached(tasks, 1, cache=store)
        assert _computed(got) == [1, 2]
        _assert_all_same(got, reference)

    def test_evicted_cache_entry_recomputes(self, tmp_path):
        tasks = _tasks()
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        first = execute_cached(tasks, 1, cache=store)
        store.path_for(task_key(encode_task(tasks[1]))).unlink()
        got = execute_cached(tasks, 1, cache=store)
        assert _computed(got) == [1]
        _assert_all_same(got, first)


RUNS = 24
MAX_SHARD = 4  # six shards


def _cell(n=32, runs=RUNS):
    graph = random_regular_graph(n, 4, rng=5)
    engine = SpreadEngine(CobraRule(make_policy(2)), graph)
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, 0] = True
    return engine, state


class TestRunShardedCheckpoint:
    def test_run_sharded_checkpoint_resume_identical(self, tmp_path):
        # The engine-level path: a run_sharded rerun against the same
        # cache must be bit-identical to the uncached run — and the
        # rerun must come from cache.
        engine, state = _cell()
        kwargs = dict(workers=1, max_shard=MAX_SHARD, track_hits=True)
        reference = engine.run_sharded(state, 5, **kwargs)
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        first = engine.run_sharded(state, 5, cache=store, **kwargs)
        tel = get_telemetry()
        hits_before = tel.counters().get("client.cache.hits", 0)
        second = engine.run_sharded(state, 5, cache=store, **kwargs)
        assert tel.counters().get("client.cache.hits", 0) == hits_before + 6
        assert_same_result(first, reference)
        assert_same_result(second, reference)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("lost", [0, 2, 6])
    def test_recomputes_lost_shards(self, tmp_path, workers, lost):
        engine, state = _cell()
        kwargs = dict(workers=workers, track_hits=True, max_shard=MAX_SHARD)
        reference = engine.run_sharded(state, 9, **kwargs)
        store = ResultCache(tmp_path, max_bytes=None)
        engine.run_sharded(state, 9, cache=store, **kwargs)
        entries = sorted(store.root.glob("*/*.json"))
        assert len(entries) == 6
        for path in entries[:lost]:
            path.unlink()
        hits, misses = store.hits, store.misses
        again = engine.run_sharded(state, 9, cache=store, **kwargs)
        assert store.misses - misses == lost
        assert store.hits - hits == 6 - lost
        # The merged meta tables only the freshly computed shards.
        assert len((again.meta or {}).get("shards", ())) == lost
        assert len(store) == 6
        assert_same_result(again, reference)

    def test_local_default_writes_no_cache(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        engine, state = _cell()
        engine.run_sharded(state, 9, workers=2, max_shard=MAX_SHARD)
        assert not root.exists()


def test_broker_stores_results_while_job_runs(tmp_path):
    # One worker, eight shards: when the first result reaches the cache
    # the broker must still hold shards nobody has started.
    engine, state = _cell(n=256, runs=32)
    reference = engine.run_sharded(state, 4, workers=1, max_shard=4)
    queue_at_first_put = []

    class WatchedCache(ResultCache):
        def put(self, key, result):
            path = super().put(key, result)
            if not queue_at_first_put:
                queue_at_first_put.append(broker_status(broker.address))
            return path

    store = WatchedCache(tmp_path, max_bytes=None)
    with Broker(lease_timeout=15.0) as broker:
        procs = spawn_workers(broker.address, [None])
        try:
            got = engine.run_distributed(
                state, 4, endpoint=broker.address, max_shard=4, cache=store
            )
        finally:
            reap(procs)
    assert queue_at_first_put[0]["pending"] > 0
    assert len(store) == 8
    assert_same_result(got, reference)


def test_broker_lets_go_of_a_client_that_dies_mid_wait():
    # No workers, so the job never finishes: only noticing the hang-up
    # can end the connection's handler (shutting the broker down with
    # the handler still parked on the job logs an asyncio error).
    with Broker(lease_timeout=15.0) as broker:
        sock = socket.create_connection(parse_endpoint(broker.address), timeout=5)
        with sock:
            send_frame(
                sock,
                {"type": "submit", "job_id": "j", "tasks": [{"index": 0, "task": {}}]},
            )
            assert recv_frame(sock)["type"] == "accepted"
            send_frame(sock, {"type": "wait", "job_id": "j"})
        deadline = time.monotonic() + 5
        while broker._handlers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not broker._handlers


def test_fallback_runs_only_what_a_dead_broker_left(tmp_path):
    # The broker dies as the first result is stored: the local pool
    # must finish the remaining shards, and only those.  The worker is a
    # thread, not a forked process, so no child inherits (and keeps
    # open) the dead broker's listening socket.
    engine, state = _cell(n=256, runs=32)
    reference = engine.run_sharded(state, 4, workers=1, max_shard=4)
    broker = Broker(lease_timeout=15.0).start_in_thread()

    class BrokerDiesAtFirstPut(ResultCache):
        def put(self, key, result):
            path = super().put(key, result)
            broker.shutdown()  # no-op once the broker is down
            return path

    store = BrokerDiesAtFirstPut(tmp_path, max_bytes=None)
    worker = threading.Thread(
        target=run_worker,
        args=(broker.address,),
        kwargs={"poll_interval": 0.05, "connect_retries": 0},
        daemon=True,
    )
    worker.start()
    tel = get_telemetry()
    fallbacks = tel.counters().get("client.fallbacks", 0)
    try:
        got = engine.run_distributed(
            state,
            4,
            endpoint=broker.address,
            max_shard=4,
            cache=store,
            retry=RetryPolicy(attempts=2, base_delay_s=0.01, max_delay_s=0.02),
            fallback="local",
        )
    finally:
        broker.shutdown()
        worker.join(timeout=10)
    assert not worker.is_alive()
    computed_locally = len((got.meta or {}).get("shards", ()))
    assert 1 <= computed_locally < 8
    assert tel.counters().get("client.fallbacks", 0) == fallbacks + 1
    assert len(store) == 8
    assert_same_result(got, reference)


def test_killed_client_resumes_from_the_cache(tmp_path):
    # The client dies once two shard results are stored; running again
    # with the same cache serves those from it and recomputes the rest.
    engine, state = _cell()
    kwargs = dict(track_hits=True, max_shard=MAX_SHARD)
    reference = engine.run_sharded(state, 7, workers=1, **kwargs)
    store = ResultCache(tmp_path, max_bytes=None)
    with Broker(lease_timeout=5.0) as broker:
        procs = spawn_workers(broker.address)
        try:
            with fault_injection(FaultPlan(seed=0, crash_client_after_done=2)):
                with pytest.raises(InjectedCrash):
                    engine.run_distributed(
                        state, 7, endpoint=broker.address, cache=store, **kwargs
                    )
        finally:
            reap(procs)
    hits = store.hits
    resumed = engine.run_sharded(state, 7, workers=1, cache=store, **kwargs)
    assert store.hits - hits >= 2
    assert_same_result(resumed, reference)
