"""End-to-end distributed execution over a localhost broker.

That the broker tier returns the ``run_sharded(workers=1)`` reference
for every rule and topology is the oracle's job
(``tests/test_oracle.py``).  Here: the broker and its workers survive
what goes wrong — a worker that stalls or dies mid-shard (its lease is
requeued onto the survivors), a result the client cannot decode (the
shard is resubmitted), poison tasks, garbage frames and hostile graph
frames — and results stay bit-identical; plus housekeeping, memory,
graph shipping, the cache and trace stitching.
"""

import collections
import logging
import multiprocessing as mp
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.distributed import (
    Broker,
    DistributedError,
    ResultCache,
    broker_status,
)
from repro.distributed.broker import _STOP_GRACE_S
from repro.distributed.wire import (
    encode_result,
    graph_blobs,
    parse_endpoint,
    recv_frame,
    result_envelope_error,
    send_frame,
)
from repro.engine import BipsRule, CobraRule, SpreadEngine, SpreadResult
from repro.graphs import random_regular_graph
from repro.parallel import ShardTask, execute_cached
from repro.resilience import FaultPlan
from repro.telemetry import get_telemetry
from tiers import FAST_RETRY, assert_same_result, reap, spawn_workers

RUNS = 40
MAX_SHARD = 8  # several shards even at tiny run counts
_CTX = mp.get_context("fork")


def _graph():
    return random_regular_graph(24, 4, rng=11)


def _initial_state(n):
    state = np.zeros((RUNS, n), dtype=bool)
    state[:, 0] = True
    return state


def _cobra_job():
    """``(engine, state)``: COBRA b = 2 from vertex 0, ``RUNS`` runs on the test graph."""
    graph = _graph()
    return SpreadEngine(CobraRule(make_policy(2)), graph), _initial_state(graph.n)


def _run(engine, state, address, seed=123, cache=None, **kwargs):
    """``run_distributed`` of ``state`` through the broker at ``address``."""
    return engine.run_distributed(
        state, seed, endpoint=address, max_shard=MAX_SHARD, cache=cache, **kwargs
    )


def _stalling_worker(address):
    """Lease one shard, then hold it without heartbeating (a dead worker
    that keeps its TCP connection open, so only lease expiry frees the
    shard)."""
    sock = socket.create_connection(parse_endpoint(address), timeout=10)
    while True:
        send_frame(sock, {"type": "lease"})
        message = recv_frame(sock)
        if message is None:
            return
        if message.get("type") == "task":
            time.sleep(600)
        time.sleep(0.02)


def _undecodable_worker(address, completed):
    """Lease one shard and complete it with a result the broker's envelope
    check passes but the client cannot decode: no final-state bytes."""
    with socket.create_connection(parse_endpoint(address), timeout=10) as sock:
        while True:
            send_frame(sock, {"type": "lease"})
            message = recv_frame(sock)
            if message.get("type") == "task":
                break
            time.sleep(0.02)
        result = encode_result(
            SpreadResult(np.zeros(1, dtype=np.int64), 0, np.zeros((1, 1), dtype=bool))
        )
        result["final_state"]["data"] = ""
        assert result_envelope_error(result) is None
        send_frame(
            sock, {"type": "complete", "shard_id": message["shard_id"], "result": result}
        )
        recv_frame(sock)
    completed.set()


class TestFaultTolerance:
    def test_killed_worker_shard_requeues_and_merge_is_bit_identical(self):
        engine, state = _cobra_job()
        reference = engine.run_sharded(
            state, 123, workers=1, track_hits=True, max_shard=MAX_SHARD
        )
        with Broker(lease_timeout=0.6) as broker:
            staller = _CTX.Process(
                target=_stalling_worker, args=(broker.address,), daemon=True
            )
            staller.start()

            outcome = {}
            thread = threading.Thread(target=lambda: outcome.update(
                result=_run(engine, state, broker.address, track_hits=True)
            ))
            thread.start()
            # Wait until the stalling worker holds a lease, then bring
            # up the healthy pair that must absorb the requeue.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if broker_status(broker.address).get("leased", 0) >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("stalling worker never leased a shard")
            healthy = spawn_workers(broker.address)
            try:
                thread.join(timeout=30)
                assert not thread.is_alive(), "distributed job did not finish"
            finally:
                reap(healthy + [staller])
        assert_same_result(outcome["result"], reference)

    def test_abrupt_worker_death_disconnect_requeues(self):
        # A worker that dies outright (connection drop) frees its shard
        # immediately, without waiting for the lease to expire.
        engine, state = _cobra_job()
        reference = engine.run_sharded(
            state, 123, workers=1, max_shard=MAX_SHARD
        )
        with Broker(lease_timeout=30.0) as broker:
            staller = _CTX.Process(
                target=_stalling_worker, args=(broker.address,), daemon=True
            )
            staller.start()
            outcome = {}
            thread = threading.Thread(
                target=lambda: outcome.update(result=_run(engine, state, broker.address))
            )
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if broker_status(broker.address).get("leased", 0) >= 1:
                    break
                time.sleep(0.02)
            staller.kill()  # SIGKILL mid-shard: no goodbye, just EOF
            healthy = spawn_workers(broker.address)
            try:
                thread.join(timeout=30)
                assert not thread.is_alive()
            finally:
                reap(healthy)
        assert_same_result(outcome["result"], reference)

    def test_poison_task_fails_job_after_max_attempts(self):
        # A task whose execution always raises must fail the job with a
        # diagnostic instead of looping forever.
        graph = _graph()
        rule = CobraRule(make_policy(2))
        state = np.zeros((4, graph.n), dtype=bool)
        state[:, 0] = True
        good = ShardTask(
            rule=rule,
            topology=graph,
            completion=SpreadEngine(rule, graph).completion,
            state=state,
            seed=np.random.SeedSequence(1),
            max_rounds=5,
        )
        # Poison via an out-of-range BIPS source: decode succeeds but
        # stepping raises IndexError in the worker.
        poison = ShardTask(
            rule=BipsRule(make_policy(2), source=graph.n + 7),
            topology=graph,
            completion=good.completion,
            state=state,
            seed=np.random.SeedSequence(2),
            max_rounds=5,
        )
        with Broker(lease_timeout=5.0, max_attempts=2) as broker:
            procs = spawn_workers(broker.address, [None])
            try:
                with pytest.raises(DistributedError, match="failed"):
                    execute_cached(
                        [good, poison],
                        endpoint=broker.address,
                        cache=None,
                        fallback=None,
                    )
            finally:
                reap(procs)


    def test_undecodable_result_is_resubmitted_to_the_broker(self):
        # The client resubmits a shard whose result it could not decode;
        # a healthy worker computes it, and nothing runs locally.
        engine, state = _cobra_job()
        reference = engine.run_sharded(state, 123, workers=1, track_hits=True, max_shard=MAX_SHARD)
        before = get_telemetry().counters()
        with Broker(lease_timeout=15.0) as broker:
            completed = threading.Event()
            bad = threading.Thread(
                target=_undecodable_worker, args=(broker.address, completed), daemon=True
            )
            bad.start()
            outcome = {}
            thread = threading.Thread(target=lambda: outcome.update(
                result=_run(engine, state, broker.address, track_hits=True, retry=FAST_RETRY)
            ))
            thread.start()
            assert completed.wait(10), "the undecodable worker never completed"
            healthy = spawn_workers(broker.address, [None])
            try:
                thread.join(timeout=30)
                assert not thread.is_alive(), "distributed job did not finish"
            finally:
                reap(healthy)
            bad.join(timeout=5)
            assert not bad.is_alive()
        got = outcome["result"]
        assert_same_result(got, reference)
        assert got.meta is None  # no shard was computed locally
        after = get_telemetry().counters()
        for name in ("client.decode_rejects", "retry.retries"):
            assert after.get(name, 0) == before.get(name, 0) + 1, name


class TestBrokerHousekeeping:
    def test_broker_survives_garbage_frames(self):
        # A port scanner's HTTP probe must not kill the broker: the
        # bogus length prefix is rejected, the connection dropped, and
        # the next well-formed client served normally.
        with Broker(lease_timeout=5.0) as broker:
            probe = socket.create_connection(
                parse_endpoint(broker.address), timeout=5
            )
            probe.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            probe.close()
            # A structurally-valid frame with a missing field likewise.
            partial = socket.create_connection(
                parse_endpoint(broker.address), timeout=5
            )
            send_frame(partial, {"type": "complete"})  # no shard_id
            partial.close()
            assert broker_status(broker.address)["jobs"] == 0

    def test_stop_ends_open_connections_quietly(self, caplog):
        # Stopping closes each connection, and its handler returns on
        # EOF; a cancelled handler would make Python 3.11's start_server
        # log a CancelledError for it.  Two idle peers and a client
        # waiting on a job no worker leases must all end without an
        # asyncio log record, well inside the grace period.
        broker = Broker().start_in_thread()
        endpoint = parse_endpoint(broker.address)
        socks = [socket.create_connection(endpoint, timeout=10) for _ in range(3)]
        try:
            client = socks[0]
            tasks = [{"index": 0, "task": {}}]
            send_frame(client, {"type": "submit", "job_id": "j", "tasks": tasks})
            assert recv_frame(client)["type"] == "accepted"
            send_frame(client, {"type": "wait", "job_id": "j"})
            for idle in socks[1:]:  # every handler is up and reading
                send_frame(idle, {"type": "status"})
                assert recv_frame(idle)["type"] == "status"
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                start = time.monotonic()
                broker.shutdown()
                elapsed = time.monotonic() - start
            assert [recv_frame(sock) for sock in socks] == [None] * 3
        finally:
            broker.shutdown()
            for sock in socks:
                sock.close()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        assert elapsed < _STOP_GRACE_S

    def test_uncollected_job_is_reaped_after_ttl(self):
        # A client that submits and vanishes must not pin the job's
        # payloads and results in broker memory past job_ttl.
        engine, state = _cobra_job()
        graph, rule = engine.topology, engine.rule
        with Broker(
            lease_timeout=15.0, sweep_interval=0.05, job_ttl=0.3
        ) as broker:
            procs = spawn_workers(broker.address, [None])
            try:
                from repro.distributed.wire import encode_task
                from repro.parallel import plan_shards
                from repro.stats import spawn_seeds

                sizes = plan_shards(rule, RUNS, graph.n, max_shard=MAX_SHARD)
                seeds = spawn_seeds(np.random.SeedSequence(1), len(sizes))
                tasks, lo = [], 0
                for size, seed in zip(sizes, seeds):
                    tasks.append(
                        ShardTask(
                            rule=rule,
                            topology=graph,
                            completion=engine.completion,
                            state=state[lo : lo + size],
                            seed=seed,
                        )
                    )
                    lo += size
                # Submit without ever waiting, then abandon.
                sock = socket.create_connection(
                    parse_endpoint(broker.address), timeout=10
                )
                send_frame(
                    sock,
                    {
                        "type": "submit",
                        "job_id": "abandoned",
                        "tasks": [
                            {"index": i, "task": encode_task(t)}
                            for i, t in enumerate(tasks)
                        ],
                        "graphs": graph_blobs(tasks),
                    },
                )
                assert recv_frame(sock)["type"] == "accepted"
                sock.close()
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    counts = broker_status(broker.address)
                    if counts["jobs"] == 0 and counts["done"] == 0:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail(f"abandoned job never reaped: {counts}")
                assert broker_status(broker.address)["metrics"]["completes"] == len(tasks)
                assert not _holds(broker, graph.digest)  # the blobs went too
            finally:
                reap(procs)


def _holds(root, needle: str) -> bool:
    """Whether any string reachable from ``root`` contains ``needle``.

    Follows builtin containers and the attributes of repro objects, so
    it sees every table a broker keeps (ledger, registry, bookkeeping).
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            if needle in obj:
                return True
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(getattr(obj, "__dict__", {}).values())
    return False


class TestBrokerMemory:
    def test_failed_jobs_leave_nothing_behind(self):
        # A long-lived broker must run in bounded memory: once a failed
        # job's waiter has its answer, no table the broker keeps may
        # still hold the job's id.
        job_ids = [f"doomed-{i}" for i in range(5)]
        with Broker(lease_timeout=15.0, max_attempts=1) as broker:
            endpoint = parse_endpoint(broker.address)
            with socket.create_connection(
                endpoint, timeout=10
            ) as client, socket.create_connection(endpoint, timeout=10) as worker:
                for job_id in job_ids:
                    tasks = [{"index": i, "task": {}} for i in range(8)]
                    send_frame(
                        client, {"type": "submit", "job_id": job_id, "tasks": tasks}
                    )
                    assert recv_frame(client)["type"] == "accepted"
                    send_frame(worker, {"type": "lease"})
                    task = recv_frame(worker)
                    assert task["type"] == "task"
                    send_frame(
                        worker,
                        {"type": "error", "shard_id": task["shard_id"], "message": "x"},
                    )
                    assert recv_frame(worker)["type"] == "ok"
                    send_frame(client, {"type": "wait", "job_id": job_id})
                    assert recv_frame(client)["type"] == "failed"
                # The ledger's queue lets go of a dropped job's
                # never-leased shard ids lazily, on the next lease.
                send_frame(worker, {"type": "lease"})
                assert recv_frame(worker)["type"] == "idle"
        leaked = [job_id for job_id in job_ids if _holds(broker, job_id)]
        assert not leaked


def _fetches(broker) -> int:
    return broker_status(broker.address)["metrics"]["graph_fetches"]


class TestGraphShipping:
    """A job carries each graph once; workers fetch it once and keep it."""

    def _cell(self):
        graph = _graph()
        engine = SpreadEngine(BipsRule(make_policy(2), source=0), graph)
        state = _initial_state(graph.n)
        reference = engine.run_sharded(state, 123, workers=1, max_shard=MAX_SHARD)
        return graph, engine, state, reference

    def test_each_worker_fetches_a_graph_once_across_jobs(self):
        graph, engine, state, reference = self._cell()
        with Broker(lease_timeout=15.0) as broker:
            procs = spawn_workers(broker.address)
            try:
                _run(engine, state, broker.address, 0)
                assert 1 <= _fetches(broker) <= 2
                # Jobs on the same graph until both workers have run a shard.
                for seed in range(1, 50):
                    if len(broker_status(broker.address)["metrics"]["workers"]) == 2:
                        break
                    _run(engine, state, broker.address, seed)
                assert _fetches(broker) == 2
                got = _run(engine, state, broker.address)
                assert _fetches(broker) == 2
            finally:
                reap(procs)
            assert not _holds(broker, graph.digest)  # done jobs drop their blobs
        assert_same_result(got, reference)

    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_replacement_of_a_killed_worker_fetches_the_graph_again(self, kill_after):
        graph, engine, state, reference = self._cell()
        outcome = {}
        with Broker(lease_timeout=15.0) as broker:
            plan = FaultPlan(seed=0, kill_worker_after_leases=kill_after)
            (doomed,) = spawn_workers(broker.address, [plan])
            thread = threading.Thread(
                target=lambda: outcome.update(result=_run(engine, state, broker.address))
            )
            thread.start()
            doomed.join(timeout=20)
            assert doomed.exitcode == 17
            # Its last lease died before a fetch; any earlier one fetched.
            assert _fetches(broker) == kill_after - 1
            replacement = spawn_workers(broker.address, [None])
            try:
                thread.join(timeout=30)
                assert not thread.is_alive(), "distributed job did not finish"
            finally:
                reap(replacement)
            assert _fetches(broker) == kill_after
        assert_same_result(outcome["result"], reference)

    def test_hostile_graph_frames_fail_and_the_broker_serves_on(self):
        graph, engine, state, reference = self._cell()
        blobs = {graph.digest: {"n": graph.n}}  # the broker never reads a blob
        with Broker(lease_timeout=15.0, max_attempts=1) as broker:
            with socket.create_connection(
                parse_endpoint(broker.address), timeout=10
            ) as peer:
                send_frame(peer, {"type": "graph", "shard_id": "no-job:0", "digest": graph.digest})
                assert recv_frame(peer)["type"] == "failed"
                send_frame(
                    peer,
                    {"type": "submit", "job_id": "j", "graphs": blobs,
                     "tasks": [{"index": 0, "task": {}}]},
                )
                assert recv_frame(peer)["type"] == "accepted"
                send_frame(peer, {"type": "graph", "shard_id": "j:0", "digest": "f" * 64})
                reply = recv_frame(peer)
                assert reply["type"] == "failed" and "f" * 64 in reply["error"]
                send_frame(peer, {"type": "graph", "shard_id": "j:0", "digest": graph.digest})
                assert recv_frame(peer) == {
                    "type": "graph", "digest": graph.digest, "blob": blobs[graph.digest]
                }
                procs = spawn_workers(broker.address)
                try:
                    got = _run(engine, state, broker.address)
                finally:
                    reap(procs)
                send_frame(peer, {"type": "status"})
                assert recv_frame(peer)["type"] == "status"
        assert_same_result(got, reference)


class TestBrokerStatus:
    def test_metrics_keys_and_uptime_from_first_submit(self):
        # Rates and per-worker throughput count from the first job, so
        # a broker that sat idle before it does not report them diluted.
        with Broker() as broker:
            assert broker_status(broker.address)["metrics"]["uptime_s"] is None
            endpoint = parse_endpoint(broker.address)
            with socket.create_connection(endpoint, timeout=10) as client:
                tasks = [{"index": 0, "task": {}}]
                send_frame(client, {"type": "submit", "job_id": "j", "tasks": tasks})
                assert recv_frame(client)["type"] == "accepted"
            metrics = broker_status(broker.address)["metrics"]
        assert set(metrics) == {
            "submits", "shards_submitted", "leases", "heartbeats", "requeues",
            "completes", "worker_errors", "decode_rejects", "graph_fetches",
            "uptime_s", "wait_s", "exec_s", "workers",
        }
        assert metrics["uptime_s"] > 0
        assert (metrics["submits"], metrics["shards_submitted"]) == (1, 1)


class TestCacheIntegration:
    def test_warm_cache_serves_without_broker(self, tmp_path):
        engine, state = _cobra_job()
        cache = ResultCache(tmp_path)
        with Broker(lease_timeout=15.0) as broker:
            procs = spawn_workers(broker.address)
            try:
                first = _run(engine, state, broker.address, cache=cache)
            finally:
                reap(procs)
            address = broker.address
        assert len(cache) > 0
        # The broker is gone; a fully-cached rerun must not even dial.
        second = _run(engine, state, address, cache=cache)
        assert_same_result(second, first)

    def test_cold_cache_against_dead_broker_raises(self, tmp_path):
        engine, state = _cobra_job()
        with Broker() as broker:
            address = broker.address
        with pytest.raises(DistributedError, match="cannot reach broker"):
            _run(engine, state, address, 1, cache=ResultCache(tmp_path))

    def test_cache_key_sensitivity_causes_recompute(self, tmp_path):
        # Same everything but the seed: the second run must miss.
        engine, state = _cobra_job()
        cache = ResultCache(tmp_path)
        with Broker(lease_timeout=15.0) as broker:
            procs = spawn_workers(broker.address)
            try:
                _run(engine, state, broker.address, cache=cache)
                before = len(cache)
                _run(engine, state, broker.address, 124, cache=cache)
            finally:
                reap(procs)
        assert len(cache) == 2 * before


class TestTraceStitching:
    """Traced ``run_distributed`` produces one stitched span tree.

    The telemetry sink is configured *before* the workers fork, so the
    client, the broker thread, and both worker processes append to the
    same JSONL file; ``summarize_trace`` must then reconstruct a single
    rooted tree — client span at the root, the broker's job span and
    the workers' shard spans stitched beneath it via the wire's
    optional trace key.
    """

    def test_traced_run_stitches_one_tree_across_processes(self, tmp_path):
        from repro.telemetry import JsonlSink, configure, load_traces, summarize_trace

        engine, state = _cobra_job()
        path = tmp_path / "stitch.jsonl"
        configure(JsonlSink(path), sample_every=1)
        procs = []
        try:
            with Broker(lease_timeout=15.0) as broker:
                # Forked after configure: the workers inherit the sink
                # (lazily opened, so each process appends its own lines).
                procs = spawn_workers(broker.address)
                _run(engine, state, broker.address)
        finally:
            reap(procs)
            configure(None)

        summary = summarize_trace(load_traces([path]))
        # One trace across client + broker thread + 2 worker processes.
        assert not summary.orphans, [s.span_id for s in summary.orphans]
        assert len(summary.roots) == 1
        root = summary.roots[0]
        assert root.name == "engine.run_sharded"

        def walk(span):
            yield span
            for child in span.children:
                for got in walk(child):
                    yield got

        tree = list(walk(root))
        names = {s.name for s in tree}
        assert "broker.job" in names
        assert "shard.run" in names
        # The workers' spans really came from other processes.
        span_pids = {s.pid for s in tree if s.pid is not None}
        worker_pids = {
            s.pid for s in tree if s.name == "shard.run" and s.pid is not None
        }
        assert worker_pids and worker_pids.isdisjoint({root.pid})
        assert len(span_pids) >= 2
        # Every span record of the run carries the one trace id
        # (housekeeping counters/events may be trace-less).
        traces = {
            r.get("trace")
            for r in load_traces([path])
            if r["kind"] in ("span-start", "span-end")
        }
        assert len(traces) == 1 and None not in traces

    def test_untraced_run_emits_nothing(self, tmp_path):
        from repro.telemetry import configure

        engine, state = _cobra_job()
        path = tmp_path / "off.jsonl"
        configure(None)
        procs = []
        with Broker(lease_timeout=15.0) as broker:
            procs = spawn_workers(broker.address)
            try:
                _run(engine, state, broker.address)
            finally:
                reap(procs)
        assert not path.exists()
