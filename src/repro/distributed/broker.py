"""The shard-queue broker: fault-tolerant scheduling over TCP.

Two layers:

* :class:`ShardLedger` — a pure in-memory state machine over shard
  records (states ``pending → leased → done``, plus ``failed``).
  Workers *lease* shards in completion order (a worker asks for the
  next shard whenever it finishes one — the queue-level form of the
  ROADMAP's "dynamic shard stealing"); a lease carries a deadline that
  heartbeats renew; an expired lease, a worker disconnect, or a
  reported worker error *requeues* the shard, so a killed worker never
  loses work.  A shard that keeps failing is capped at
  ``max_attempts`` leases, after which its job is declared failed
  rather than looping forever.  The ledger takes explicit ``now``
  timestamps, so every transition is unit-testable without a clock.

* :class:`Broker` — a small asyncio TCP server speaking the framed
  JSON protocol of :mod:`repro.distributed.wire`.  Clients ``submit``
  a job (a list of encoded shard tasks keyed by shard index, plus a
  ``graphs`` map holding each graph the tasks name by digest, once)
  and ``wait`` on it: the broker answers with one ``result`` frame per
  shard as soon as that shard finishes, then ``done`` (or ``failed``),
  so the client can persist every finished shard before the job ends;
  workers ``lease`` / ``heartbeat`` / ``complete`` / ``error``, and a
  worker that lacks a leased task's graph asks for it with ``graph``
  (shard id and digest) and gets the job's blob back.  Shard payloads
  and graph blobs pass through the broker opaquely — it never decodes
  a task or a graph, and it drops a job's blobs with the job — so its
  memory and CPU footprint is queue-sized, not simulation-sized.
  Result frames *are* shallowly validated
  (:func:`~repro.distributed.wire.result_envelope_error`): a
  structurally broken result is rejected and its shard requeued
  without poison-counting, instead of poisoning the client's decode.

Determinism: the broker controls only *where and when* shards run,
never *what they compute* — every task carries its own spawned seed —
so any interleaving of workers, requeues and retries merges into the
same bit-for-bit result (``repro.parallel.merge_shard_results`` keyed
by shard index).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..telemetry import Telemetry, get_telemetry, span_id_from
from .wire import attach_trace, read_frame, result_envelope_error, write_frame

__all__ = ["ShardLedger", "ShardRecord", "Broker"]

#: Shard states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: The lifecycle counters of the ``metrics`` status section; each is the
#: ``broker.queue.<key>`` counter of the broker's registry.
_QUEUE_COUNTERS = ("submits", "shards_submitted", "leases", "heartbeats",
                   "requeues", "completes", "worker_errors", "decode_rejects",
                   "graph_fetches")

#: Per-worker registry series (labelled ``worker``) and the key each
#: has in a worker's entry of the ``metrics`` status section.
_WORKER_SERIES = {
    "broker.worker.completed": "completed",
    "broker.worker.busy_seconds": "busy_s",
    "broker.worker.runs": "runs",
    "broker.worker.rounds": "rounds",
    "broker.worker.max_rss_bytes": "max_rss",
}

#: How long :meth:`Broker.stop` waits for connection handlers to return
#: after their transports are closed, before it cancels the rest.
_STOP_GRACE_S = 1.0


@dataclass
class ShardRecord:
    """One shard's ledger entry (payloads are opaque encoded tasks).

    ``submitted_at``/``leased_at`` time its queue wait and execution.
    """

    shard_id: str
    job_id: str
    index: int
    payload: dict = field(repr=False)
    state: str = PENDING
    attempts: int = 0
    rejects: int = 0
    worker: str | None = None
    deadline: float | None = None
    result: dict | None = field(default=None, repr=False)
    error: str | None = None
    submitted_at: float = 0.0
    leased_at: float | None = None


class ShardLedger:
    """Pending/leased/done bookkeeping with lease timeouts and requeue.

    Parameters
    ----------
    lease_timeout:
        Seconds a lease stays valid without a heartbeat renewal.
    max_attempts:
        Total leases a shard may consume before its job is declared
        failed (each lease is one attempt; requeues do not reset it).
    """

    def __init__(
        self, *, lease_timeout: float = 30.0, max_attempts: int = 5
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self._shards: dict[str, ShardRecord] = {}
        self._queue: deque[str] = deque()
        self._jobs: dict[str, list[str]] = {}
        self._job_errors: dict[str, str] = {}
        self._graphs: dict[str, dict] = {}

    # -- submission -----------------------------------------------------
    def submit(
        self,
        job_id: str,
        tasks: list[tuple[int, dict]],
        now: float,
        graphs: dict | None = None,
    ) -> None:
        """Register a job's shards (``(index, payload)`` pairs), FIFO.

        ``graphs`` maps a digest to the graph blob the job's tasks name
        by it; the blobs are kept unread beside the job and dropped with
        it.  Atomic: the whole submission is validated before any state
        mutates, so a rejected submission (duplicate job or duplicate
        index) leaves no orphan shards behind and the job id stays
        reusable.  ``now`` stamps each shard's ``submitted_at``.
        """
        if job_id in self._jobs:
            raise ValueError(f"job {job_id!r} already submitted")
        if not isinstance(graphs, (dict, type(None))):
            raise TypeError(f"graphs of {job_id!r} must map digests to blobs")
        indices = [int(index) for index, _ in tasks]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate shard index in {job_id!r}")
        ids: list[str] = []
        for index, (_, payload) in zip(indices, tasks):
            shard_id = f"{job_id}:{index}"
            self._shards[shard_id] = ShardRecord(
                shard_id=shard_id, job_id=job_id, index=index, payload=payload,
                submitted_at=now,
            )
            self._queue.append(shard_id)
            ids.append(shard_id)
        self._jobs[job_id] = ids
        if graphs:
            self._graphs[job_id] = graphs

    # -- worker side ----------------------------------------------------
    def lease(self, worker_id: str, now: float) -> ShardRecord | None:
        """Hand the next pending shard to ``worker_id`` (None if idle).

        Completion-order dispatch: whichever worker asks next gets the
        next shard, so fast workers naturally absorb the heavy tail.
        Shards of already-failed jobs are skipped.
        """
        while self._queue:
            shard_id = self._queue.popleft()
            record = self._shards.get(shard_id)
            if record is None or record.state != PENDING:
                continue
            if record.job_id in self._job_errors:
                continue
            record.state = LEASED
            record.worker = worker_id
            record.attempts += 1
            record.deadline = now + self.lease_timeout
            record.leased_at = now
            return record
        return None

    def renew(self, shard_id: str, worker_id: str, now: float) -> bool:
        """Heartbeat: push the lease deadline out; False if not leased so."""
        record = self._shards.get(shard_id)
        if record is None or record.state != LEASED or record.worker != worker_id:
            return False
        record.deadline = now + self.lease_timeout
        return True

    def complete(self, shard_id: str, result: dict) -> str | None:
        """Record a shard result; returns the job id (None if unknown).

        First result wins; a late duplicate (a worker finishing after
        its lease expired and the shard was recomputed elsewhere) is
        ignored — both copies are bit-identical by the per-shard seed
        contract, so either is correct.
        """
        record = self._shards.get(shard_id)
        if record is None:
            return None
        if record.state != DONE:
            record.state = DONE
            record.result = result
            record.worker = None
            record.deadline = None
        return record.job_id

    def fail(self, shard_id: str, worker_id: str, message: str) -> str | None:
        """A worker reported an execution error: requeue or give up.

        Like :meth:`renew`, the report only counts if ``worker_id``
        still holds the lease — a stale error from a worker whose
        lease already expired (the shard is pending again or leased to
        a healthy worker) must not requeue someone else's work or burn
        extra attempts.
        """
        record = self._shards.get(shard_id)
        if record is None:
            return None
        if record.state != LEASED or record.worker != worker_id:
            return record.job_id
        self._requeue(record, message)
        return record.job_id

    def reject_result(
        self, shard_id: str, worker_id: str, reason: str
    ) -> str | None:
        """A result frame failed validation: requeue without poison-counting.

        A shard whose *result* cannot be decoded did not fail to
        execute — the transport (or a faulty worker serialiser) mangled
        it — so the attempt is refunded before requeueing: a healthy
        worker re-running the shard starts from the same attempt budget
        it would have had without the mangled frame.  The refund is
        bounded by ``max_attempts`` *rejects* per shard, so a worker
        that deterministically produces garbage still exhausts the
        budget and fails the job instead of looping forever.  Like
        :meth:`fail`, the report only counts while ``worker_id`` holds
        the lease.
        """
        record = self._shards.get(shard_id)
        if record is None:
            return None
        if record.state != LEASED or record.worker != worker_id:
            return record.job_id
        record.rejects += 1
        if record.rejects < self.max_attempts:
            record.attempts = max(0, record.attempts - 1)
        self._requeue(record, f"result rejected: {reason}")
        return record.job_id

    def _requeue(self, record: ShardRecord, reason: str) -> None:
        if record.attempts >= self.max_attempts:
            record.state = FAILED
            record.error = reason
            record.worker = None
            record.deadline = None
            self._job_errors.setdefault(
                record.job_id,
                f"shard {record.shard_id} failed after {record.attempts} "
                f"attempts: {reason}",
            )
        else:
            record.state = PENDING
            record.worker = None
            record.deadline = None
            self._queue.append(record.shard_id)

    def expire(self, now: float) -> list[str]:
        """Requeue every lease whose deadline passed; returns job ids."""
        affected = []
        for record in self._shards.values():
            if (
                record.state == LEASED
                and record.deadline is not None
                and record.deadline < now
            ):
                worker = record.worker
                self._requeue(record, f"lease expired on worker {worker!r}")
                affected.append(record.job_id)
        return affected

    def release_worker(self, worker_id: str) -> list[str]:
        """Requeue everything leased by a disconnected worker."""
        affected = []
        for record in self._shards.values():
            if record.state == LEASED and record.worker == worker_id:
                self._requeue(record, f"worker {worker_id!r} disconnected")
                affected.append(record.job_id)
        return affected

    def record(self, shard_id: str) -> ShardRecord | None:
        """The ledger entry of ``shard_id`` (None if unknown or dropped)."""
        return self._shards.get(shard_id)

    def graph_blob(self, shard_id: str, digest: str) -> dict | None:
        """The blob of graph ``digest`` in the job of ``shard_id`` (or None)."""
        record = self._shards.get(shard_id)
        if record is None:
            return None
        return self._graphs.get(record.job_id, {}).get(digest)

    # -- client side ----------------------------------------------------
    def job_state(self, job_id: str) -> tuple[str, str | None]:
        """Return ``("running"|"done"|"failed"|"unknown", error)``."""
        error = self._job_errors.get(job_id)
        if error is not None:
            return "failed", error
        shard_ids = self._jobs.get(job_id)
        if shard_ids is None:
            return "unknown", None
        if all(self._shards[s].state == DONE for s in shard_ids):
            return "done", None
        return "running", None

    def job_results(self, job_id: str) -> list[tuple[int, dict]]:
        """All ``(index, result)`` pairs of a job, index order.

        A shard that has not finished yet pairs with None, so a running
        job's finished results are the non-None ones.
        """
        shard_ids = self._jobs.get(job_id, [])
        records = sorted(
            (self._shards[s] for s in shard_ids), key=lambda r: r.index
        )
        return [(r.index, r.result) for r in records]

    def drop_job(self, job_id: str) -> None:
        """Forget a job, its shards and its graphs (once its waiter has them all)."""
        for shard_id in self._jobs.pop(job_id, []):
            self._shards.pop(shard_id, None)
        self._job_errors.pop(job_id, None)
        self._graphs.pop(job_id, None)

    def counts(self) -> dict:
        """Queue statistics: shards per state plus the live job count."""
        tally = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for record in self._shards.values():
            tally[record.state] += 1
        tally["jobs"] = len(self._jobs)
        return tally

    def stale_leases(self, now: float, grace: float = 0.0) -> tuple[int, float]:
        """Leased shards whose deadline passed over ``grace`` seconds ago.

        Returns ``(count, worst_overdue_s)``.  A healthy broker sweeps
        expired leases back to pending within one sweep interval, so
        any lease overdue by more than a couple of intervals means the
        sweeper is wedged — the ``/healthz`` staleness signal.
        """
        count, worst = 0, 0.0
        for record in self._shards.values():
            if record.state != LEASED or record.deadline is None:
                continue
            overdue = now - record.deadline - grace
            if overdue > 0:
                count += 1
                worst = max(worst, overdue)
        return count, worst


class Broker:
    """Asyncio TCP broker serving the shard queue on ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` / :attr:`address` after start — the test and benchmark
    pattern).  Use :meth:`run_forever` from a CLI process, or
    :meth:`start_in_thread` / :meth:`shutdown` (also available as a
    context manager) to host the broker inside another program.

    A job whose client stops waiting on it (disconnected, timed out,
    crashed) is reaped ``job_ttl`` seconds after reaching its final
    state, so an abandoned sweep cannot pin its shard payloads and
    results in broker memory forever.

    Queue metrics live in :attr:`telemetry`, the broker's own registry
    on the process trace sink (so two brokers in one process never mix
    their counts); ``status``, ``/statusz`` and ``/metrics`` read it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = 30.0,
        max_attempts: int = 5,
        sweep_interval: float | None = None,
        job_ttl: float = 3600.0,
    ) -> None:
        self.host = host
        self.port = int(port) or None
        self.ledger = ShardLedger(
            lease_timeout=lease_timeout, max_attempts=max_attempts
        )
        self.telemetry = Telemetry(get_telemetry().sink)
        for key in _QUEUE_COUNTERS:  # served from the start, zeros included
            self.telemetry.count(f"broker.queue.{key}", 0)
        self._started: float | None = None  # first submit; uptime counts from it
        self.sweep_interval = (
            float(sweep_interval)
            if sweep_interval is not None
            else max(0.05, float(lease_timeout) / 4.0)
        )
        self.job_ttl = float(job_ttl)
        self._requested_port = int(port)
        self._server: asyncio.base_events.Server | None = None
        self._sweeper: asyncio.Task | None = None
        self._events: dict[str, asyncio.Event] = {}
        self._finished_at: dict[str, float] = {}
        self._job_traces: dict[str, dict] = {}
        self._job_started: dict[str, float] = {}
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._connections = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> str:
        """The ``host:port`` endpoint string clients and workers dial."""
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listening socket and start the lease sweeper."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._sweeper = self._loop.create_task(self._sweep_loop())

    async def stop(self) -> None:
        """Close the server and end this broker's connection handlers.

        Every open connection's transport is closed, so its handler
        reads EOF and returns the way it does when a peer hangs up
        (ending any result stream it runs); only a handler still running
        :data:`_STOP_GRACE_S` later is cancelled.  A cancelled handler
        makes Python 3.11's ``start_server`` log a ``CancelledError``,
        and from 3.12.1 the server's ``wait_closed`` waits for every
        open connection.  Only the broker's own handlers are touched — a
        host application embedding the broker in its event loop keeps
        its unrelated tasks running.
        """
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in self._handlers.values():
            writer.close()
        if self._handlers:
            _, stragglers = await asyncio.wait(
                list(self._handlers), timeout=_STOP_GRACE_S
            )
            for task in stragglers:
                task.cancel()
            await asyncio.gather(*stragglers, return_exceptions=True)
        self._handlers.clear()
        if server is not None:
            await server.wait_closed()

    def run_forever(self, ready=None) -> None:
        """Serve until interrupted (the ``repro broker`` CLI entry).

        ``ready``, if given, is called with the broker once the socket
        is bound (used to print the actual port).
        """

        async def _serve() -> None:
            await self.start()
            if ready is not None:
                ready(self)
            try:
                await asyncio.Event().wait()
            finally:
                await self.stop()

        asyncio.run(_serve())

    def start_in_thread(self) -> "Broker":
        """Run the broker's event loop in a daemon thread; returns self.

        Blocks until the socket is bound, so :attr:`address` is valid
        on return.  Pair with :meth:`shutdown` (or use the broker as a
        context manager).
        """
        if self._thread is not None:
            raise RuntimeError("broker already running in a thread")
        ready = threading.Event()
        failures: list[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to the caller
                failures.append(exc)
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-broker", daemon=True
        )
        self._thread.start()
        ready.wait()
        if failures:
            self._thread.join()
            self._thread = None
            raise failures[0]
        return self

    def shutdown(self) -> None:
        """Stop a :meth:`start_in_thread` broker and join its thread."""
        if self._thread is None:
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "Broker":
        """Context manager: start in a background thread."""
        return self.start_in_thread()

    def __exit__(self, *exc) -> None:
        """Context manager: shut the background thread down."""
        self.shutdown()

    # -- live observability ---------------------------------------------
    def _on_loop(self, fn):
        """Run ``fn()`` on the broker's event loop from any thread.

        The ledger and metrics tables are only ever mutated on the
        event-loop thread; hopping there for reads keeps the HTTP
        endpoint threads from observing partially-applied transitions.
        Falls back to a direct call when no loop is running (unit tests
        poking a never-started broker).
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            return fn()

        async def _call():
            return fn()

        return asyncio.run_coroutine_threadsafe(_call(), loop).result(timeout=10)

    def _health_sync(self) -> dict:
        now = time.monotonic()
        grace = 2.0 * self.sweep_interval
        stale, worst = self.ledger.stale_leases(now, grace)
        sweeper_ok = self._sweeper is not None and not self._sweeper.done()
        ok = sweeper_ok and stale == 0
        payload = {
            "ok": ok,
            "sweeper_alive": sweeper_ok,
            "stale_leases": stale,
        }
        if not ok:
            detail = []
            if not sweeper_ok:
                detail.append("lease sweeper not running")
            if stale:
                detail.append(
                    f"{stale} lease(s) overdue by up to {worst:.1f}s "
                    "past the sweep grace window"
                )
            payload["detail"] = "; ".join(detail)
        return payload

    def health(self) -> dict:
        """Thread-safe ``/healthz`` verdict: liveness + lease staleness.

        ``ok`` is false when the sweeper task has died or a lease
        deadline sits more than two sweep intervals in the past
        without being requeued — both mean the queue has stopped making
        progress even though the socket still answers.
        """
        return self._on_loop(self._health_sync)

    def _queue_metrics(self, now: float) -> dict:
        """The ``metrics`` section of ``status`` and ``/statusz``, off the registry."""
        tel = self.telemetry
        counters = tel.counter_series()
        uptime = None if self._started is None else max(now - self._started, 1e-9)
        workers: dict[str, dict] = {}
        for (name, labels), value in {**counters, **tel.gauges()}.items():
            key = _WORKER_SERIES.get(name)
            if key is None:
                continue
            stats = workers.setdefault(
                dict(labels)["worker"],
                {"completed": 0, "busy_s": 0.0, "runs": 0, "rounds": 0, "max_rss": 0},
            )
            stats[key] = value if key == "busy_s" else int(value)
        for stats in workers.values():
            stats["throughput"] = stats["completed"] / uptime if uptime else 0.0
        return {
            **{k: counters[(f"broker.queue.{k}", ())] for k in _QUEUE_COUNTERS},
            "uptime_s": uptime,
            "wait_s": tel.histogram_summary("broker.wait.seconds"),
            "exec_s": tel.histogram_summary("broker.exec.seconds"),
            "workers": dict(sorted(workers.items())),
        }

    def _status_sync(self) -> dict:
        now = time.monotonic()
        return {
            "role": "broker",
            "address": self.address,
            "pid": os.getpid(),
            "queue": self.ledger.counts(),
            "metrics": self._queue_metrics(now),
            "health": self._health_sync(),
        }

    def status_snapshot(self) -> dict:
        """Thread-safe ``/statusz`` frame: queue, metrics, cache, resources.

        The superset of the TCP ``status`` reply: ledger counts and
        queue metrics (with per-worker throughput and peak RSS), plus
        this process's result-cache footprint, ``client.*``/``retry.*``
        counters and resource snapshot.
        """
        from ..telemetry.resource import resource_snapshot
        from .client import transport_snapshot

        status = self._on_loop(self._status_sync)
        status.update(transport_snapshot())
        status["resources"] = resource_snapshot()
        return status

    def _metrics_registries_sync(self) -> tuple[Telemetry, Telemetry]:
        now = time.monotonic()
        state = Telemetry()
        counts = self.ledger.counts()
        state.gauge("broker.jobs", counts["jobs"])
        for shard_state in (PENDING, LEASED, DONE, FAILED):
            state.gauge(f"broker.shards.{shard_state}", counts[shard_state])
        stale, _ = self.ledger.stale_leases(now, 2.0 * self.sweep_interval)
        state.gauge("broker.stale_leases", stale)
        for worker_id, stats in self._queue_metrics(now)["workers"].items():
            state.gauge("broker.worker.throughput", stats["throughput"], worker=worker_id)
        return self.telemetry, state

    def metrics_registries(self) -> tuple[Telemetry, Telemetry]:
        """Thread-safe: what ``/metrics`` renders beside the process registry.

        :attr:`telemetry`, with the counters and histograms recorded as
        transitions happened, and a fresh registry with no sink holding
        queue depths, stale leases and per-worker throughput read from
        the ledger now, so a scrape writes nothing to the trace.
        """
        return self._on_loop(self._metrics_registries_sync)

    def serve_metrics(self, port: int, host: str = "127.0.0.1"):
        """Start a :class:`~repro.telemetry.live.MetricsServer` for this broker.

        Wires ``/metrics``/``/healthz``/``/statusz`` to the broker's
        thread-safe snapshots and returns the started server (port 0
        binds ephemerally; the caller owns ``stop()``).
        """
        from ..telemetry.live import MetricsServer

        server = MetricsServer(
            host=host,
            port=port,
            status=self.status_snapshot,
            health=self.health,
            registries=self.metrics_registries,
        )
        return server.start()

    # -- protocol -------------------------------------------------------
    def _job_span_id(self, job_id: str) -> str:
        """The deterministic span id of a traced job's ``broker.job`` span."""
        trace = self._job_traces.get(job_id, {})
        return span_id_from("broker.job", trace.get("id"), job_id)

    def _finish_job_span(self, job_id: str, state: str) -> None:
        """Close a traced job's ``broker.job`` span (idempotent via pop)."""
        started = self._job_started.pop(job_id, None)
        trace = self._job_traces.get(job_id)
        if trace is None:
            return
        tel = self.telemetry
        if tel.enabled:
            wall = None if started is None else time.monotonic() - started
            tel.span_finished(
                "broker.job",
                self._job_span_id(job_id),
                parent_id=trace.get("parent"),
                trace_id=trace.get("id"),
                wall_s=wall,
                job=job_id,
                state=state,
            )

    def _notify(self, job_id: str | None) -> None:
        """Wake the job's waiter after a transition; stamp a final state."""
        if job_id is None:
            return
        event = self._events.get(job_id)
        if event is None:
            return
        event.set()
        state, _ = self.ledger.job_state(job_id)
        if state in ("done", "failed") and job_id not in self._finished_at:
            self._finished_at[job_id] = time.monotonic()
            self._finish_job_span(job_id, state)

    def _drop_job(self, job_id: str) -> None:
        if job_id in self._job_started:
            self._finish_job_span(job_id, "dropped")
        self.ledger.drop_job(job_id)
        self._events.pop(job_id, None)
        self._finished_at.pop(job_id, None)
        self._job_traces.pop(job_id, None)
        self._job_started.pop(job_id, None)

    def _observe_exec(self, worker_id: str, elapsed: float, stats) -> None:
        """Record a finished shard's execution time and its worker's ``stats``."""
        tel = self.telemetry
        stats = stats or {}
        tel.observe("broker.exec.seconds", elapsed)
        tel.count("broker.worker.completed", worker=worker_id)
        tel.count("broker.worker.busy_seconds", elapsed, worker=worker_id)
        tel.count("broker.worker.runs", int(stats.get("runs", 0) or 0), worker=worker_id)
        tel.count("broker.worker.rounds", int(stats.get("rounds_run", 0) or 0), worker=worker_id)
        if stats.get("max_rss"):
            # Peak RSS never falls, so a worker's latest is its maximum.
            tel.gauge("broker.worker.max_rss_bytes", int(stats["max_rss"]), worker=worker_id)

    async def _sweep_loop(self) -> None:
        tel = self.telemetry
        while True:
            await asyncio.sleep(self.sweep_interval)
            now = time.monotonic()
            expired = self.ledger.expire(now)
            if expired:
                tel.count("broker.queue.requeues", len(expired))
                if tel.enabled:
                    tel.event("broker.requeue", shards=len(expired), cause="expired")
            for job_id in expired:
                self._notify(job_id)
            # Reap finished jobs whose client stopped waiting on them
            # (disconnected, timed out, crashed): without this, the
            # abandoned shard payloads and results would pin broker
            # memory forever.
            for job_id, finished in list(self._finished_at.items()):
                if now - finished > self.job_ttl:
                    self._drop_job(job_id)

    async def _handle_wait(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        """Stream a job's results as its shards finish, then end it.

        One ``result`` frame per shard, sent as soon as the shard is
        done (and at once for shards already done), then ``done``; a
        failed job ends with ``failed`` instead.  Clearing the event
        before reading the ledger means a completion that lands while
        frames are being written is picked up on the next pass.
        """
        event = self._events.get(job_id)
        sent: set[int] = set()
        error = None
        while event is not None:
            event.clear()
            state, error = self.ledger.job_state(job_id)
            if state in ("failed", "unknown"):
                break
            for index, result in self.ledger.job_results(job_id):
                if result is not None and index not in sent:
                    sent.add(index)
                    await write_frame(
                        writer,
                        {"type": "result", "index": index, "result": result},
                    )
            if state == "done":
                self._drop_job(job_id)
                await write_frame(writer, {"type": "done"})
                return
            await event.wait()
        self._drop_job(job_id)
        await write_frame(
            writer, {"type": "failed", "error": error or f"unknown job {job_id!r}"}
        )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers[task] = writer
            task.add_done_callback(lambda done: self._handlers.pop(done, None))
        self._connections += 1
        worker_id = f"conn-{self._connections}"
        tel = self.telemetry
        streams: list[asyncio.Task] = []
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                kind = message.get("type")
                if kind == "lease":
                    now = time.monotonic()
                    record = self.ledger.lease(worker_id, now)
                    if record is None:
                        await write_frame(writer, {"type": "idle"})
                    else:
                        tel.count("broker.queue.leases")
                        tel.observe("broker.wait.seconds", now - record.submitted_at)
                        if tel.enabled:
                            tel.event(
                                "broker.lease",
                                shard=record.shard_id,
                                worker=worker_id,
                                attempt=record.attempts,
                            )
                        reply = {
                            "type": "task",
                            "shard_id": record.shard_id,
                            "task": record.payload,
                            "lease_timeout": self.ledger.lease_timeout,
                        }
                        # Relay the job's trace context (if its submit
                        # carried one) so the worker's spans stitch
                        # under the client's tree.
                        attach_trace(
                            reply, self._job_traces.get(record.job_id)
                        )
                        await write_frame(writer, reply)
                elif kind == "graph":
                    shard_id, digest = message["shard_id"], message["digest"]
                    blob = self.ledger.graph_blob(shard_id, digest)
                    if blob is None:
                        reply = {
                            "type": "failed",
                            "error": f"no graph {digest!r} for shard {shard_id!r}",
                        }
                    else:
                        tel.count("broker.queue.graph_fetches")
                        reply = {"type": "graph", "digest": digest, "blob": blob}
                    await write_frame(writer, reply)
                elif kind == "heartbeat":
                    tel.count("broker.queue.heartbeats")
                    self.ledger.renew(
                        message.get("shard_id", ""), worker_id, time.monotonic()
                    )
                elif kind == "complete":
                    now = time.monotonic()
                    shard_id = message["shard_id"]
                    reason = result_envelope_error(message.get("result"))
                    if reason is not None:
                        # A structurally broken result would only blow
                        # up later in the client's decode_result:
                        # requeue the shard here (without burning an
                        # attempt — this is a transport/serialiser
                        # fault, not a task fault) and tell the worker.
                        tel.count("broker.queue.decode_rejects")
                        tel.count("broker.queue.requeues")
                        job_id = self.ledger.reject_result(
                            shard_id, worker_id, reason
                        )
                        if tel.enabled:
                            tel.event(
                                "broker.reject",
                                shard=shard_id,
                                worker=worker_id,
                                reason=reason,
                            )
                        await write_frame(
                            writer, {"type": "rejected", "error": reason}
                        )
                        self._notify(job_id)
                        continue
                    # Only a shard's first result has an execution time;
                    # a late duplicate is counted but not timed.
                    record = self.ledger.record(shard_id)
                    done = record is None or record.state == DONE
                    leased_at = None if done else record.leased_at
                    job_id = self.ledger.complete(shard_id, message["result"])
                    tel.count("broker.queue.completes")
                    if leased_at is not None:
                        self._observe_exec(
                            worker_id, now - leased_at, message.get("stats")
                        )
                    if tel.enabled:
                        tel.event(
                            "broker.complete",
                            shard=shard_id,
                            worker=worker_id,
                        )
                    await write_frame(writer, {"type": "ok"})
                    self._notify(job_id)
                elif kind == "error":
                    tel.count("broker.queue.worker_errors")
                    tel.count("broker.queue.requeues")
                    job_id = self.ledger.fail(
                        message["shard_id"],
                        worker_id,
                        message.get("message", "worker error"),
                    )
                    if tel.enabled:
                        tel.event(
                            "broker.requeue",
                            shards=1,
                            cause="worker-error",
                            shard=message["shard_id"],
                            worker=worker_id,
                        )
                    await write_frame(writer, {"type": "ok"})
                    self._notify(job_id)
                elif kind == "submit":
                    job_id = message["job_id"]
                    now = time.monotonic()
                    try:
                        self.ledger.submit(
                            job_id,
                            [
                                (int(item["index"]), item["task"])
                                for item in message["tasks"]
                            ],
                            now,
                            message.get("graphs"),
                        )
                    except (ValueError, KeyError, TypeError) as exc:
                        await write_frame(
                            writer, {"type": "failed", "error": str(exc)}
                        )
                        continue
                    if self._started is None:
                        self._started = now
                    tel.count("broker.queue.submits")
                    tel.count("broker.queue.shards_submitted", len(message["tasks"]))
                    trace = message.get("trace")
                    if isinstance(trace, dict) and trace.get("id"):
                        self._job_traces[job_id] = {
                            "id": str(trace["id"]),
                            "parent": trace.get("parent"),
                        }
                        self._job_started[job_id] = now
                        if tel.enabled:
                            tel.span_started(
                                "broker.job",
                                self._job_span_id(job_id),
                                parent_id=trace.get("parent"),
                                trace_id=str(trace["id"]),
                                job=job_id,
                                shards=len(message["tasks"]),
                            )
                    if tel.enabled:
                        tel.event(
                            "broker.submit",
                            job=job_id,
                            shards=len(message["tasks"]),
                        )
                    self._events[job_id] = asyncio.Event()
                    await write_frame(
                        writer,
                        {"type": "accepted", "count": len(message["tasks"])},
                    )
                    self._notify(job_id)  # an empty job is already done
                elif kind == "wait":
                    # Streamed from a child task so this loop keeps
                    # reading: a client that dies mid-job is seen at
                    # once (EOF), not when its job next finishes a shard.
                    streams.append(
                        asyncio.create_task(
                            self._handle_wait(writer, message["job_id"])
                        )
                    )
                elif kind == "status":
                    await write_frame(
                        writer,
                        {
                            "type": "status",
                            **self.ledger.counts(),
                            "metrics": self._queue_metrics(time.monotonic()),
                        },
                    )
                else:
                    await write_frame(
                        writer,
                        {
                            "type": "failed",
                            "error": f"unknown message type {kind!r}",
                        },
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except (ValueError, KeyError, TypeError) as exc:
            # A malformed frame (port scanner, bogus length prefix,
            # non-JSON payload, missing field): answer if the stream
            # still works, then drop the connection — after a framing
            # error the byte stream is unsynchronised, and the broker
            # itself must survive any garbage a TCP listener attracts.
            with contextlib.suppress(Exception):
                await write_frame(
                    writer, {"type": "failed", "error": f"malformed message: {exc}"}
                )
        finally:
            for stream in streams:
                stream.cancel()
                # A stream that outlived its client ends cancelled or
                # with the write error the closed socket raised.
                with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                    await stream
            released = self.ledger.release_worker(worker_id)
            if released:
                tel.count("broker.queue.requeues", len(released))
                if tel.enabled:
                    tel.event(
                        "broker.requeue",
                        shards=len(released),
                        cause="disconnect",
                        worker=worker_id,
                    )
            for job_id in released:
                self._notify(job_id)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
