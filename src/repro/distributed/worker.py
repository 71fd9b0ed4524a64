"""The shard worker: lease, execute, stream back, repeat.

A worker is a plain blocking-socket loop around the one engine entry
point the whole repo shares, :func:`repro.parallel.run_shard`: it
leases a shard from the broker, decodes the task (rule, topology,
completion, state, seed) through :mod:`repro.distributed.wire`,
executes it, and streams the encoded result back.  Leasing happens in
completion order — a worker only asks for the next shard after
finishing the last — which is what balances heavy-tailed cover times
across a heterogeneous pool.

A task names its graph by digest.  The worker keeps the graphs it has
decoded in one :class:`~repro.distributed.wire.GraphCache` for its
whole life, across jobs and reconnects; on a miss the decode asks the
broker with a ``graph`` frame for the leased shard's job, and the
reply's blob is checked against the digest before it is kept.  So a
graph crosses the wire once per worker, and again only after the
cache evicts it or the worker restarts.

While a shard is computing, a daemon heartbeat thread renews the lease
at a third of the broker's lease timeout, so long shards on healthy
workers are never requeued; a transient socket error inside the
heartbeat loop is counted and logged, never fatal — the loop keeps
trying, so one dropped heartbeat doesn't expire a healthy lease and
run the shard twice.  A worker that is killed simply stops
heartbeating (and drops its connection), and the broker requeues its
shard.  A task that *raises* is reported as an ``error`` message
instead of silently dying, letting the broker retry it elsewhere or
fail the job after ``max_attempts``.

The session as a whole *reconnects*: a broken or injected-away
connection closes the socket (the broker requeues any held lease on
EOF) and re-dials every 0.25 s, ``connect_retries`` times, so a broker
restart or a chaos plan dropping frames costs requeues, not workers.
Fault injection (:mod:`repro.resilience.faults`) hooks the dial
(``worker.connect``), the send paths (``worker.send``,
``worker.heartbeat``) and the lease count (worker kill); a plan is
installed only when ``faults=`` passes one (``repro worker --faults``),
and with none every hook is a single ``None`` check.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from ..parallel.sharding import run_shard
from ..resilience import RetryPolicy
from ..resilience.faults import (
    FaultPlan,
    InjectedFault,
    active_fault_plan,
    install_fault_plan,
)
from ..resilience.retry import RetryError
from ..telemetry import TraceContext, get_telemetry
from ..telemetry.live import MetricsServer, metrics_port_from_env
from ..telemetry.resource import resource_snapshot
from .wire import (
    GraphCache,
    attach_trace,
    decode_task,
    encode_result,
    parse_endpoint,
    recv_frame,
    send_frame,
)

__all__ = ["run_worker"]

#: The per-shard timing keys a worker copies from the result's shard
#: meta into the ``stats`` dict of its ``complete`` frame — the only
#: place shard timings cross the wire (results themselves stay
#: meta-free so the wire format and cache entries are unchanged).
_STATS_KEYS = ("wall_s", "cpu_s", "runs", "rounds_run", "max_rss")

#: Seconds between dials of the broker: fixed, with no jitter.
_DIAL_SPACING_S = 0.25


def _heartbeat_loop(
    sock: socket.socket,
    lock: threading.Lock,
    shard_id: str,
    interval: float,
    stop: threading.Event,
) -> None:
    tel = get_telemetry()
    while not stop.wait(interval):
        plan = active_fault_plan()
        if plan is not None and plan.stall_heartbeat():
            tel.count("faults.injected")
            if tel.enabled:
                tel.event("faults.heartbeat_stall", shard=shard_id)
            continue
        try:
            with lock:
                send_frame(
                    sock,
                    {"type": "heartbeat", "shard_id": shard_id},
                    site="worker.heartbeat",
                )
        except OSError as exc:
            # Transient drop: count it, log it, keep beating.  Silently
            # dying here would let the lease expire while the shard
            # keeps running, and the broker would schedule it twice.
            tel.count("worker.heartbeat.errors")
            if tel.enabled:
                tel.event(
                    "worker.heartbeat.error",
                    shard=shard_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
            continue


def _fetch_graph(
    sock: socket.socket, lock: threading.Lock, shard_id: str, digest: str
) -> dict | None:
    """Ask the broker for graph ``digest`` of ``shard_id``'s job.

    Returns the blob, or None when the broker has none.  The heartbeat
    thread only sends, so the next frame read is the reply.
    """
    with lock:
        send_frame(
            sock,
            {"type": "graph", "shard_id": shard_id, "digest": digest},
            site="worker.send",
        )
    reply = recv_frame(sock)
    if reply is None:
        raise ConnectionError("broker closed the connection")
    return reply.get("blob") if reply.get("type") == "graph" else None


def _dial(host: str, port: int, policy: RetryPolicy) -> socket.socket:
    """Connect to the broker under *policy*, honouring injected refusals."""

    def attempt() -> socket.socket:
        plan = active_fault_plan()
        if plan is not None and plan.refuse_connection("worker.connect"):
            tel = get_telemetry()
            tel.count("faults.injected")
            if tel.enabled:
                tel.event("faults.refuse", site="worker.connect")
            raise InjectedFault("refuse", "worker.connect")
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.settimeout(None)
        return sock

    return policy.run(attempt, what=f"dial broker {host}:{port}")


def run_worker(
    endpoint,
    *,
    max_tasks: int | None = None,
    poll_interval: float = 0.5,
    connect_retries: int = 20,
    faults: FaultPlan | None = None,
    metrics_port: int | None = None,
) -> int:
    """Serve shards from ``endpoint`` until the broker goes away.

    Parameters
    ----------
    endpoint:
        Broker address, anything :func:`repro.distributed.parse_endpoint`
        accepts (``"host:port"``).
    max_tasks:
        Exit after this many completed shards (None = run until the
        broker goes away for longer than the dial retries cover — the
        CLI deployment mode).
    poll_interval:
        Sleep between lease attempts while the queue is empty.
    connect_retries:
        Dial retries, 0.25 s apart, so workers may be launched before
        (or while) the broker comes up — and, on a mid-session
        disconnect, how long the worker keeps re-dialing before giving
        up.
    faults:
        A :class:`~repro.resilience.FaultPlan` to install for this
        process (chaos harness use); None installs none.
    metrics_port:
        Serve ``/metrics``/``/healthz``/``/statusz`` on this port (0 =
        ephemeral) for the lifetime of the worker.  When None the
        ``REPRO_METRICS_PORT`` environment variable is consulted;
        unset/off means no HTTP surface at all.

    Returns the number of shards completed (including ones that ended
    in a reported error).  The very first dial failing (no broker ever
    reachable) raises; a *lost* broker after a working session exits
    cleanly once re-dialing gives up.
    """
    host, port = parse_endpoint(endpoint)
    if faults is not None:
        install_fault_plan(faults)
    dial_policy = RetryPolicy(
        attempts=int(connect_retries) + 1,
        base_delay_s=_DIAL_SPACING_S,
        max_delay_s=_DIAL_SPACING_S,
        jitter=0.0,
    )
    def _session_loop() -> int:
        """The dial/lease/execute loop, wrapped so the live plane is
        torn down on every exit path."""
        completed = 0
        leases = 0
        tel = get_telemetry()
        if tel.enabled:
            # Written before any lease, so a worker that never gets a
            # shard still leaves a trace file `repro trace summarize`
            # can load (the record carries the pid).
            tel.event("worker.start", endpoint=f"{host}:{port}")
        ever_connected = False
        # Fetches through the session and the shard in hand at the miss.
        graphs = GraphCache(
            lambda digest: _fetch_graph(sock, lock, shard_id, digest)
        )
        while max_tasks is None or completed < max_tasks:
            try:
                sock = _dial(host, port, dial_policy)
            except (RetryError, OSError) as exc:
                if not ever_connected:
                    cause = exc.last if isinstance(exc, RetryError) else exc
                    raise (
                        cause if isinstance(cause, OSError) else exc
                    ) from exc
                break
            if ever_connected:
                tel.count("worker.reconnects")
                if tel.enabled:
                    tel.event("worker.reconnect", endpoint=f"{host}:{port}")
            ever_connected = True
            lock = threading.Lock()
            try:
                while max_tasks is None or completed < max_tasks:
                    with lock:
                        send_frame(sock, {"type": "lease"}, site="worker.send")
                    message = recv_frame(sock)
                    if message is None:
                        break
                    kind = message.get("type")
                    if kind == "idle":
                        time.sleep(poll_interval)
                        continue
                    if kind != "task":
                        break
                    leases += 1
                    if faults is not None and faults.kill_worker(leases):
                        # A chaos kill is a SIGKILL stand-in: no cleanup,
                        # no goodbye frame — the broker must recover from
                        # lease expiry / EOF alone.
                        tel.count("faults.injected")
                        os._exit(17)
                    shard_id = message["shard_id"]
                    trace = TraceContext.from_wire(message.get("trace"))
                    interval = max(
                        0.05, float(message.get("lease_timeout", 30.0)) / 3.0
                    )
                    stop = threading.Event()
                    heartbeat = threading.Thread(
                        target=_heartbeat_loop,
                        args=(sock, lock, shard_id, interval, stop),
                        name="repro-worker-heartbeat",
                        daemon=True,
                    )
                    heartbeat.start()
                    if tel.enabled:
                        tel.event("worker.lease", shard=shard_id)
                    try:
                        # Install the job's trace context (when the lease
                        # carried one) so the shard.run span stitches under
                        # the client's tree; restored immediately after.
                        prev_ctx = tel.install_context(trace) if trace else None
                        try:
                            result = run_shard(decode_task(message["task"], graphs))
                        finally:
                            if trace is not None:
                                tel.install_context(prev_ctx)
                    except Exception as exc:
                        stop.set()
                        heartbeat.join()
                        if isinstance(exc, ConnectionError):
                            raise  # a graph fetch lost the broker: re-dial
                        tel.count("worker.errors")
                        if tel.enabled:
                            tel.event(
                                "worker.error",
                                shard=shard_id,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        with lock:
                            send_frame(
                                sock,
                                {
                                    "type": "error",
                                    "shard_id": shard_id,
                                    "message": f"{type(exc).__name__}: {exc}",
                                },
                                site="worker.send",
                            )
                        if recv_frame(sock) is None:
                            break
                        completed += 1
                        continue
                    stop.set()
                    heartbeat.join()
                    shard_meta = (result.meta or {}).get("shard") or {}
                    stats = {
                        key: shard_meta[key]
                        for key in _STATS_KEYS
                        if key in shard_meta
                    }
                    tel.count("worker.completed")
                    if tel.enabled:
                        tel.event("worker.complete", shard=shard_id, **stats)
                    with lock:
                        frame = {
                            "type": "complete",
                            "shard_id": shard_id,
                            "result": encode_result(result),
                        }
                        if stats:
                            frame["stats"] = stats
                        attach_trace(frame, trace)
                        send_frame(sock, frame, site="worker.send")
                    if recv_frame(sock) is None:
                        break
                    completed += 1
                else:
                    # max_tasks reached inside a live session.
                    sock.close()
                    return completed
                # Clean EOF or a non-task reply: the broker went away (or
                # is restarting).  Fall through to re-dial.
            except (ConnectionError, OSError):
                # Includes injected frame drops (InjectedFault is a
                # ConnectionError): close this session and re-dial — the
                # broker requeues the held lease when it sees EOF.
                pass
            finally:
                sock.close()
        return completed

    resolved_port = metrics_port_from_env(metrics_port)
    server = None
    if resolved_port is not None:
        def _statusz() -> dict:
            return {
                "role": "worker",
                "endpoint": f"{host}:{port}",
                "pid": os.getpid(),
                "counters": get_telemetry().counters(),
                "resources": resource_snapshot(),
            }

        server = MetricsServer(port=resolved_port, status=_statusz).start()
    try:
        return _session_loop()
    finally:
        if server is not None:
            server.stop()
