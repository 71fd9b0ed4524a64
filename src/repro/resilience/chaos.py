"""Seeded chaos harness: every fault class, every tier, bit-identical.

The matrix behind ``repro chaos``: for each fault class in
:data:`FAULT_CLASSES` a small COBRA workload runs three times — serial
(``workers=1``), sharded (``workers=2``) and distributed (a real
localhost broker with two worker processes, faults installed on both
ends of the wire) — and every run must return a
:class:`~repro.engine.SpreadResult` bit-identical to the fault-free
reference.  The serial and sharded legs double as a zero-interference
check: their code paths never reach an injection site, so an installed
plan must not perturb them at all.

``--smoke`` (:func:`run_chaos_smoke`) is the CI leg: two distributed
fault cases plus the two recovery drills — dead-broker fallback to
local execution, and a client killed mid-job resuming from the result
cache without recomputing the shards it had stored (verified via the
``client.cache.hits`` counter).

Everything is driven by one seed: the workload seed and the fault
plans derive from it, and the retry schedule is fixed, so a failing
cell replays exactly with ``repro chaos --seed N``.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import tempfile
from pathlib import Path

import numpy as np

from ..core.branching import make_policy
from ..distributed import Broker, ResultCache, run_worker
from ..engine import CobraRule, SpreadEngine
from ..graphs import random_regular_graph
from ..telemetry import get_telemetry
from .faults import FaultPlan, FaultRule, InjectedCrash, fault_injection
from .retry import RetryPolicy

__all__ = [
    "FAULT_CLASSES",
    "chaos_case",
    "run_chaos_matrix",
    "run_chaos_smoke",
    "format_report",
]

#: The fault classes the matrix exercises, one row each.
FAULT_CLASSES = (
    "frame-drop",
    "frame-corrupt",
    "worker-kill",
    "heartbeat-stall",
    "connection-refusal",
)

_CTX = mp.get_context("fork")

# Small but multi-shard: 16 nodes, 16 runs, max_shard=4 gives four
# shards, enough for requeues and kills to actually reorder work.
_RUNS = 16
_MAX_SHARD = 4

# Chaos runs dial through injected refusals; keep the backoff tight so
# the matrix stays interactive.
_FAST_RETRY = RetryPolicy(attempts=6, base_delay_s=0.02, max_delay_s=0.1)


def _cell(seed: int):
    """Build the (engine, state) workload every matrix cell runs."""
    graph = random_regular_graph(16, 4, rng=7)
    rule = CobraRule(make_policy(2))
    engine = SpreadEngine(rule, graph)
    state = np.zeros((_RUNS, graph.n), dtype=bool)
    state[:, 0] = True
    return engine, state


def _reference(engine, state, seed: int):
    """The fault-free serial result every chaos run must reproduce."""
    return engine.run_sharded(
        state, seed, workers=1, track_hits=True, max_shard=_MAX_SHARD
    )


def _identical(got, want) -> bool:
    """Bit-identity between two SpreadResults (the acceptance check)."""
    return (
        got.rounds_run == want.rounds_run
        and np.array_equal(got.finish_times, want.finish_times)
        and np.array_equal(got.final_state, want.final_state)
        and (got.hit_times is None) == (want.hit_times is None)
        and (
            got.hit_times is None
            or np.array_equal(got.hit_times, want.hit_times)
        )
    )


def plans_for(fault: str, seed: int):
    """The (client plan, per-worker plans) a fault class installs.

    Worker plans are passed to the two worker processes via
    ``run_worker(..., faults=)``; the client plan is installed in the
    driving process around the run.  Either may be None.
    """
    if fault == "frame-drop":
        client = FaultPlan(
            seed=seed,
            drop=FaultRule(rate=1.0, limit=1, sites=("client.send",)),
        )
        worker = FaultPlan(
            seed=seed + 1,
            drop=FaultRule(rate=0.5, limit=3, sites=("worker.send",)),
        )
        return client, [worker, None]
    if fault == "frame-corrupt":
        client = FaultPlan(
            seed=seed,
            corrupt=FaultRule(rate=1.0, limit=1, sites=("client.send",)),
        )
        worker = FaultPlan(
            seed=seed + 1,
            corrupt=FaultRule(rate=0.5, limit=2, sites=("worker.send",)),
        )
        return client, [worker, None]
    if fault == "worker-kill":
        return None, [FaultPlan(seed=seed, kill_worker_after_leases=1), None]
    if fault == "heartbeat-stall":
        stall = FaultPlan(
            seed=seed, stall_heartbeats=FaultRule(rate=1.0, limit=8)
        )
        return None, [stall, stall]
    if fault == "connection-refusal":
        client = FaultPlan(
            seed=seed,
            refuse_connections=FaultRule(
                rate=1.0, limit=2, sites=("client.connect",)
            ),
        )
        return client, [None, None]
    raise ValueError(f"unknown fault class {fault!r}")


def _spawn_workers(address, plans):
    """Start one worker process per plan (None = healthy worker)."""
    procs = []
    for plan in plans:
        proc = _CTX.Process(
            target=run_worker,
            args=(address,),
            kwargs={"poll_interval": 0.05, "faults": plan},
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs


def _reap(procs) -> None:
    """Terminate and join worker processes."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5)


def chaos_case(fault: str, seed: int = 0) -> dict:
    """Run one fault class across all three tiers.

    Returns ``{"serial": bool, "sharded": bool, "distributed": bool}``
    — True means the faulted run completed bit-identical to the
    fault-free reference.
    """
    engine, state = _cell(seed)
    reference = _reference(engine, state, seed)
    client_plan, worker_plans = plans_for(fault, seed)
    report = {}

    # Serial and sharded tiers never reach an injection site: an
    # installed plan must be a strict no-op there.
    for tier, workers in (("serial", 1), ("sharded", 2)):
        plan = client_plan if client_plan is not None else worker_plans[0]
        with fault_injection(plan):
            got = engine.run_sharded(
                state, seed, workers=workers, track_hits=True,
                max_shard=_MAX_SHARD,
            )
        report[tier] = _identical(got, reference)

    with Broker(lease_timeout=5.0) as broker:
        procs = _spawn_workers(broker.address, worker_plans)
        try:
            with fault_injection(client_plan):
                got = engine.run_distributed(
                    state,
                    seed,
                    endpoint=broker.address,
                    track_hits=True,
                    max_shard=_MAX_SHARD,
                    cache=None,
                    retry=_FAST_RETRY,
                    fallback="none",
                )
            report["distributed"] = _identical(got, reference)
        except Exception:  # noqa: BLE001 - a red cell, not a crash
            report["distributed"] = False
        finally:
            _reap(procs)
    return report


def run_chaos_matrix(seed: int = 0, emit=None) -> dict:
    """Every fault class x every tier; the full ``repro chaos`` run.

    Returns ``{"ok": bool, "seed": seed, "cases": {fault: {tier: bool}}}``.
    ``emit`` (e.g. ``print``) receives one progress line per fault class.
    """
    cases = {}
    for fault in FAULT_CLASSES:
        report = chaos_case(fault, seed=seed)
        cases[fault] = report
        if emit is not None:
            status = "ok" if all(report.values()) else "FAIL"
            emit(f"chaos {fault:<20s} {status}  {report}")
    return {
        "ok": all(all(r.values()) for r in cases.values()),
        "seed": seed,
        "cases": cases,
    }


def _dead_endpoint() -> str:
    """An endpoint with nothing listening (bound, then released)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    _, port = sock.getsockname()
    sock.close()
    return f"127.0.0.1:{port}"


def fallback_drill(seed: int = 0) -> dict:
    """Dead broker + ``fallback='local'`` must equal the reference.

    Returns ``{"ok", "fallbacks"}`` where ``fallbacks`` is the number of
    ``client.fallbacks`` telemetry counts the drill added.
    """
    engine, state = _cell(seed)
    reference = _reference(engine, state, seed)
    tel = get_telemetry()
    before = tel.counters().get("client.fallbacks", 0)
    got = engine.run_sharded(
        state,
        seed,
        workers=2,
        track_hits=True,
        max_shard=_MAX_SHARD,
        endpoint=_dead_endpoint(),
        cache=None,
        retry=RetryPolicy(attempts=2, base_delay_s=0.01, max_delay_s=0.02),
        fallback="local",
    )
    fallbacks = tel.counters().get("client.fallbacks", 0) - before
    return {"ok": _identical(got, reference) and fallbacks >= 1,
            "fallbacks": fallbacks}


def cache_resume_drill(seed: int = 0) -> dict:
    """Kill the client mid-job; resume from the result cache without rework.

    Phase one runs distributed with ``crash_client_after_done=2``
    installed, so the driver aborts (``InjectedCrash``) once two shard
    results are stored.  Phase two resumes *locally* from the same
    cache — no broker needed — and must (a) serve the stored shards
    from cache (``client.cache.hits`` grows) and (b) finish
    bit-identical to the reference.
    """
    engine, state = _cell(seed)
    reference = _reference(engine, state, seed)
    tel = get_telemetry()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = ResultCache(Path(tmp) / "cache", max_bytes=None)
        crash_plan = FaultPlan(seed=seed, crash_client_after_done=2)
        crashed = False
        with Broker(lease_timeout=5.0) as broker:
            procs = _spawn_workers(broker.address, [None, None])
            try:
                with fault_injection(crash_plan):
                    try:
                        engine.run_distributed(
                            state,
                            seed,
                            endpoint=broker.address,
                            track_hits=True,
                            max_shard=_MAX_SHARD,
                            cache=store,
                            retry=_FAST_RETRY,
                            fallback="none",
                        )
                    except InjectedCrash:
                        crashed = True
            finally:
                _reap(procs)
        hits_before = tel.counters().get("client.cache.hits", 0)
        got = engine.run_sharded(
            state,
            seed,
            workers=1,
            track_hits=True,
            max_shard=_MAX_SHARD,
            cache=store,
        )
        resumed = tel.counters().get("client.cache.hits", 0) - hits_before
    return {
        "ok": crashed and resumed >= 2 and _identical(got, reference),
        "crashed": crashed,
        "resumed_from_cache": resumed,
    }


def run_chaos_smoke(seed: int = 0, emit=None) -> dict:
    """The CI smoke leg: two fault cases plus both recovery drills.

    Returns ``{"ok": bool, "seed": seed, "cases": {...}}`` in under a
    minute; the full matrix is :func:`run_chaos_matrix`.
    """
    cases = {}
    for fault in ("worker-kill", "frame-drop"):
        report = chaos_case(fault, seed=seed)
        cases[fault] = report
        if emit is not None:
            status = "ok" if all(report.values()) else "FAIL"
            emit(f"chaos {fault:<20s} {status}  {report}")
    cases["fallback-local"] = fallback_drill(seed=seed)
    if emit is not None:
        emit(f"chaos fallback-local       "
             f"{'ok' if cases['fallback-local']['ok'] else 'FAIL'}  "
             f"{cases['fallback-local']}")
    cases["cache-resume"] = cache_resume_drill(seed=seed)
    if emit is not None:
        emit(f"chaos cache-resume         "
             f"{'ok' if cases['cache-resume']['ok'] else 'FAIL'}  "
             f"{cases['cache-resume']}")
    ok = all(
        all(v for k, v in c.items() if isinstance(v, bool)) and c.get("ok", True)
        for c in cases.values()
    )
    return {"ok": ok, "seed": seed, "cases": cases}


def format_report(report: dict) -> str:
    """Render a matrix/smoke report as aligned text for the CLI."""
    lines = [f"chaos seed={report['seed']}  "
             f"{'ALL GREEN' if report['ok'] else 'FAILURES'}"]
    for fault, cells in report["cases"].items():
        parts = []
        for key, value in cells.items():
            if isinstance(value, bool):
                parts.append(f"{key}={'ok' if value else 'FAIL'}")
            else:
                parts.append(f"{key}={value}")
        lines.append(f"  {fault:<20s} " + "  ".join(parts))
    return "\n".join(lines)
