"""Client side of the shard queue: submit, stream results back, resiliently.

:func:`run_on_broker` is the broker tier of
:func:`repro.parallel.execute_cached`: given wire-encoded shard tasks
and the blobs of the graphs they name by digest, it submits them as one
job (each graph once, in the submit frame's ``graphs`` map, from which
workers fetch a graph they lack), then sends ``wait``, on which the
broker streams back each shard's result the moment a worker finishes
it, and hands every result to the caller as it arrives — which stores
it in the content-addressed cache, so a client killed mid-job has
already cached every shard it saw finish.  The shard plan and the
spawned seeds are computed before the transport is chosen, so any
broker, any worker count and any arrival order give results
bit-for-bit identical to ``run_sharded(workers=1)``.

Transport failures — refused dials, dropped or undecodable frames, a
broker dying mid-job — are retried under a
:class:`~repro.resilience.RetryPolicy` (each attempt resubmits only the
shards still missing, under a fresh job id).  Every call runs the whole
policy, whatever earlier calls met; once it is spent the call raises
:class:`BrokerUnavailable`, which ``fallback="local"`` turns into local
execution of the shards still undone.
"""

from __future__ import annotations

import socket
import uuid

from ..resilience import RetryError
from ..resilience.faults import InjectedCrash, InjectedFault, active_fault_plan
from ..telemetry import get_telemetry
from .wire import (
    WireDecodeError,
    attach_trace,
    decode_result,
    encode_task,
    parse_endpoint,
    recv_frame,
    send_frame,
    task_key,
)

__all__ = [
    "DistributedError",
    "BrokerUnavailable",
    "cache_lookup",
    "run_on_broker",
    "broker_status",
]


class DistributedError(RuntimeError):
    """A distributed job could not be completed (broker/worker failure)."""


class BrokerUnavailable(DistributedError):
    """The broker cannot be reached (retries exhausted).

    The transport-level subset of :class:`DistributedError`: the job
    itself is fine, the queue is not.  This is the signal
    ``fallback="local"`` acts on — a *logical* job failure (poison
    shard, rejected submission) is never masked by falling back.
    """


def _request(sock: socket.socket, message: dict) -> dict:
    try:
        send_frame(sock, message)
        reply = recv_frame(sock)
    except TimeoutError as exc:
        raise DistributedError(f"timed out waiting for the broker: {exc}") from exc
    except OSError as exc:
        raise DistributedError(f"broker connection failed: {exc}") from exc
    if reply is None:
        raise DistributedError("broker closed the connection")
    return reply


def _exchange(sock: socket.socket, message: dict) -> dict:
    """Send one frame, read one reply; raw transport errors propagate.

    The retried sibling of :func:`_request`: callers inside the retry
    loop want ``ConnectionError``/``TimeoutError``/``OSError`` to stay
    themselves (they select the retry path), not to be wrapped.
    """
    send_frame(sock, message, site="client.send")
    return _receive(sock)


def _receive(sock: socket.socket) -> dict:
    """Read one broker frame; EOF and unparsed-frame replies raise."""
    reply = recv_frame(sock)
    if reply is None:
        raise ConnectionError("broker closed the connection")
    if reply.get("type") == "failed" and "malformed message" in str(
        reply.get("error", "")
    ):
        # The broker could not parse the frame we just sent: the
        # transport (or an injected corruption) mangled it in flight.
        # That is a connection-level event, not a job rejection — let
        # the retry policy resubmit on a fresh connection.
        raise ConnectionError(
            f"broker could not parse our frame: {reply.get('error')}"
        )
    return reply


def _open_socket(endpoint) -> socket.socket:
    """Dial the broker; injected refusals surface as ``ConnectionError``."""
    host, port = parse_endpoint(endpoint)
    plan = active_fault_plan()
    if plan is not None and plan.refuse_connection("client.connect"):
        tel = get_telemetry()
        tel.count("faults.injected")
        if tel.enabled:
            tel.event("faults.refuse", site="client.connect")
        raise InjectedFault("refuse", "client.connect")
    sock = socket.create_connection((host, port), timeout=10.0)
    # A job may legitimately run for hours: no read timeout.
    sock.settimeout(None)
    return sock


def cache_lookup(tasks, store) -> tuple[list, list | None, list]:
    """Wire-encode shard tasks and look each one up in ``store`` once.

    Returns ``(encoded, keys, results)``: the encoded tasks, their
    content addresses, and the cached result per task (None for a
    miss).  Without a store there are no content addresses — hashing
    each shard's canonical encoding would be pure overhead — and every
    task is a miss.
    """
    encoded = [encode_task(task) for task in tasks]
    if store is None:
        return encoded, None, [None] * len(tasks)
    keys = [task_key(obj) for obj in encoded]
    results = [store.get(key) for key in keys]
    tel = get_telemetry()
    hits = sum(result is not None for result in results)
    misses = len(tasks) - hits
    if hits:
        tel.count("client.cache.hits", hits)
    if misses:
        tel.count("client.cache.misses", misses)
    if tel.enabled:
        tel.event("client.cache", hits=hits, misses=misses, shards=len(tasks))
    return encoded, keys, results


def run_on_broker(encoded: dict, graphs: dict, endpoint, policy, deliver) -> None:
    """Run wire-encoded shard tasks on the broker at ``endpoint``.

    ``encoded`` maps shard index to encoded task, and ``graphs`` maps
    the digest of each graph they name to its blob
    (:func:`~repro.distributed.wire.graph_blobs`).  The tasks are
    submitted as one job, then the client sends ``wait`` and the broker
    streams back each shard's result as soon as it finishes;
    ``deliver(index, result, payload)`` receives the decoded result and
    its wire payload the moment the frame arrives.

    Transport failures are retried under ``policy`` (a
    :class:`~repro.resilience.RetryPolicy`): each attempt resubmits only
    the shards not yet delivered, under a fresh job id, and exhausting
    the policy raises :class:`BrokerUnavailable`.  A job the broker
    declares failed raises :class:`DistributedError`.
    """
    tel = get_telemetry()
    plan = active_fault_plan()
    pending = dict(encoded)
    delivered = 0

    def accept(index: int, payload: dict) -> None:
        """Decode and deliver one shard result; undecodable ones stay pending."""
        nonlocal delivered
        if index not in pending:
            return
        try:
            result = decode_result(payload)
        except WireDecodeError as exc:
            tel.count("client.decode_rejects")
            if tel.enabled:
                tel.event("client.decode_reject", index=index, error=str(exc))
            return
        del pending[index]
        deliver(index, result, payload)
        delivered += 1
        if plan is not None and plan.crash_client(delivered):
            raise InjectedCrash("client.wait", delivered)

    def run_attempt() -> None:
        job_id = uuid.uuid4().hex
        with _open_socket(endpoint) as sock:
            submit = {
                "type": "submit",
                "job_id": job_id,
                "tasks": [
                    {"index": i, "task": task} for i, task in pending.items()
                ],
                "graphs": graphs,
            }
            # The optional trace-context wire key: present only when the
            # client itself is tracing, so untraced submissions stay
            # byte-identical to the pre-trace format.
            if tel.enabled:
                attach_trace(submit, tel.current_context())
            reply = _exchange(sock, submit)
            if reply.get("type") != "accepted":
                raise DistributedError(
                    f"broker rejected job: {reply.get('error', reply)}"
                )
            reply = _exchange(sock, {"type": "wait", "job_id": job_id})
            while reply.get("type") == "result":
                accept(int(reply["index"]), reply["result"])
                reply = _receive(sock)
            if reply.get("type") == "failed":
                raise DistributedError(
                    f"distributed job failed: {reply.get('error')}"
                )
            if reply.get("type") != "done":
                raise DistributedError(
                    f"unexpected broker reply {reply.get('type')!r}"
                )
        if pending:
            # Some result frames survived transport but not decoding
            # (e.g. injected payload corruption): resubmit just those
            # under the retry policy.
            raise ConnectionError(
                f"{len(pending)} shard result(s) missing or undecodable; "
                "resubmitting"
            )

    try:
        policy.run(run_attempt, what=f"distributed job via {endpoint}")
    except RetryError as exc:
        raise BrokerUnavailable(
            f"cannot reach broker at {endpoint}: {exc.last!r} "
            f"(after {exc.attempts} attempt(s))"
        ) from exc


def broker_status(endpoint, *, timeout: float = 5.0) -> dict:
    """Fetch a broker's queue counters (pending/leased/done/failed/jobs)."""
    host, port = parse_endpoint(endpoint)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise DistributedError(
            f"cannot reach broker at {host}:{port}: {exc}"
        ) from exc
    with sock:
        sock.settimeout(timeout)
        reply = _request(sock, {"type": "status"})
    if reply.get("type") != "status":
        raise DistributedError(f"unexpected broker reply {reply.get('type')!r}")
    return {k: v for k, v in reply.items() if k != "type"}
