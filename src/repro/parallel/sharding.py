"""Sharded engine execution: multiprocess fan-out over the R axis.

One :class:`~repro.engine.SpreadEngine` invocation advances ``R``
independent runs, but on one core.  This module splits the R axis into
*shards* — contiguous run blocks sized by :func:`plan_shards` under a
fixed per-shard state budget — and executes the shards across worker
processes (or one after another in-process, ``workers=1``):

* **Topology and state travel by reference.**  When a pool runs the
  shards, a static graph's CSR arrays are exported into POSIX shared
  memory (:meth:`repro.graphs.Graph.to_shared`), so every worker maps
  the same physical ``indptr`` / ``indices`` / ``degrees`` instead of
  unpickling a private copy per task, and every shard's initial state
  goes into one more segment, where the shard writes its final state
  (and its hit times, when tracked) back: only handles and small
  arrays are pickled.  Dynamic sequences ship as the small seeded
  objects they are and are realised lazily in the worker (an
  observing sequence as a fresh replay per shard).
* **Randomness is per shard.**  Each shard's generator is spawned from
  the caller's master seed via :mod:`repro.stats.rng`, and the shard
  plan is a pure function of ``(rule, runs, n, max_shard)`` —
  never of the worker count — so the merged result is bit-for-bit
  identical at any ``workers`` (``workers=1`` runs the same shards
  serially in-process).
* **Kernels are chosen per shard.**  Each shard's engine picks its own
  per-round kernel (:func:`repro.kernels.dispatch.resolve`, numba or
  numpy, bit-identical either way), so a task carries no kernel choice
  and the result does not depend on which machine ran it.
* **One executor, the cache as checkpoint.**  :func:`execute_cached`
  runs every sharded invocation: it serves finished shards from the
  content-addressed result cache, runs the rest on a broker or the
  local pool, and stores each fresh result, so resuming an interrupted
  run is just running it again.

This is the one seed stream of every static sampler in
:mod:`repro.core` and :mod:`repro.baselines`, of the COBRA hit-time
estimators and of the dynamic samplers on a shared
:class:`~repro.dynamics.GraphSequence`: samples depend on the seed, the
run count and the shard cap, never on the tier that ran them.
``tests/test_oracle.py`` pins every tier to the serial shard-by-shard
reference, and ``tests/test_one_stream.py`` pins each sampler to it.

A shard holds at most :data:`DEFAULT_SHARD_STATE_BUDGET_BYTES` of
state and at most :data:`DEFAULT_MAX_SHARD` runs: shards are the unit
of load balancing as well as of memory, so there should be at least a
few of them per worker.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph, SharedGraph, SharedSegment
from ..stats.rng import seed_sequence_from, spawn_seeds
from ..telemetry import (
    TraceContext,
    get_telemetry,
    max_rss_bytes,
    seed_id_parts,
    span_id_from,
    summarize_values,
)
from .pool import default_workers, parallel_map

__all__ = [
    "ShardTask",
    "plan_shards",
    "run_shard",
    "execute_shards",
    "execute_cached",
    "merge_shard_results",
    "run_sharded",
    "finished_times_or_raise",
    "DEFAULT_SHARD_STATE_BUDGET_BYTES",
    "DEFAULT_MAX_SHARD",
]


def finished_times_or_raise(finish_times: np.ndarray, what: str) -> np.ndarray:
    """Return a copy of ``finish_times``, raising if any run hit the cap.

    The shared tail of every sampler: ``what`` names the process and
    graph for the error message (e.g. ``"COBRA on hypercube-6"``).
    """
    capped = int((finish_times < 0).sum())
    if capped:
        raise RuntimeError(
            f"{capped} of {finish_times.shape[0]} {what} runs hit the "
            "round cap"
        )
    return finish_times.copy()

#: Per-shard boolean-state budget (64 MiB).  A shard is both a memory
#: unit *and* a load-balancing unit, and the plan must not depend on
#: the worker count, so it is sized for "a few shards per worker" on
#: any reasonable machine.
DEFAULT_SHARD_STATE_BUDGET_BYTES = 64 * 1024 * 1024

#: Hard cap on runs per shard (keeps several shards in flight even on
#: small graphs, where the byte budget alone would allow one giant
#: shard).
DEFAULT_MAX_SHARD = 256

# Worker-side cache of attached shared graphs, keyed by segment name.
# Pool workers survive across tasks, so each worker maps a segment at
# most once; the mapping is released when the worker exits (attaching
# per task would leak one file descriptor each time instead).
_ATTACHED_GRAPHS: dict[str, Graph] = {}


def plan_shards(
    rule,
    total_runs: int,
    n_vertices: int,
    *,
    max_shard: int = DEFAULT_MAX_SHARD,
) -> list[int]:
    """Split ``total_runs`` into deterministic shard sizes.

    Each run costs ``rule.state_arrays · n_vertices`` bytes (the rule's
    declared live ``(R, n)`` boolean-array equivalents, 4 if it
    declares none), so a shard holds as many runs as
    :data:`DEFAULT_SHARD_STATE_BUDGET_BYTES` allows, at least one and
    at most ``max_shard``: full shards, then the remainder.  The result
    depends only on the arguments — never on the machine or the worker
    count — which is what makes sharded execution seed-stable.
    ``total_runs == 0`` yields the empty plan (zero shards).
    """
    if total_runs < 0 or n_vertices < 1:
        raise ValueError(
            f"cannot plan {total_runs} runs on {n_vertices} vertices"
        )
    per_run = int(getattr(rule, "state_arrays", 4)) * n_vertices
    cap = max(1, min(max_shard, DEFAULT_SHARD_STATE_BUDGET_BYTES // per_run))
    full, rem = divmod(total_runs, cap)
    return [cap] * full + ([rem] if rem else [])


@dataclass(frozen=True)
class ShardTask:
    """One shard of an engine invocation, picklable for pool dispatch.

    Attributes
    ----------
    rule:
        The :class:`~repro.engine.rules.SpreadRule` (small, picklable).
    topology:
        Either a :class:`~repro.graphs.SharedGraph` handle (static
        graphs: workers attach zero-copy) or any topology-source object
        the engine accepts (graph sequences ship as their small seeded
        selves and materialise snapshots lazily in the worker).
    completion:
        A :class:`~repro.engine.completion.CompletionCriterion`.
    state:
        The shard's rule-specific initial state (rows = this shard's
        runs); on the pool path, where it lives in shared memory (see
        :func:`execute_shards`).
    seed:
        The shard's spawned :class:`numpy.random.SeedSequence`; the
        worker builds its process stream from exactly this.
    """

    rule: object
    topology: object
    completion: object
    state: np.ndarray
    seed: np.random.SeedSequence
    max_rounds: int | None = None
    track_hits: bool = False
    record_sizes: bool = False
    record_visited: bool = False


@dataclass(frozen=True)
class _SharedState:
    """Where a pool shard's state lives: a task's ``state`` on the pool path.

    The shard reads its ``shape``/``dtype`` initial state at ``offset``
    in ``segment`` and writes its final state over it, and its
    ``(R_i, n)`` int64 hit times at ``hits`` when they are tracked.  It
    pickles to a few hundred bytes, whatever the state's size.
    """

    segment: SharedSegment
    offset: int
    shape: tuple
    dtype: str
    n: int
    hits: int | None = None

    def state(self) -> np.ndarray:
        """The state array, a view of the segment."""
        return self._view(self.offset, self.shape, self.dtype)

    def hit_times(self) -> np.ndarray:
        """The hit-time array, a view of the segment."""
        return self._view(self.hits, (self.shape[0], self.n), np.int64)

    def _view(self, offset: int, shape: tuple, dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self.segment.buf, offset=offset)


def run_shard(task: ShardTask):
    """Execute one shard in the current process; returns a SpreadResult.

    Module-level (and so picklable) on purpose: this is the pool worker
    entry point, but the serial fallback calls it too, so both paths
    run literally the same code.

    Observability: the execution is wrapped in a ``shard.run``
    telemetry span whose id derives from the shard's spawned seed
    (deterministic across machines and worker counts — the spawn key
    encodes the shard index), and the returned result carries its
    wall/CPU timings in ``meta["shard"]`` — always, telemetry sink or
    not, so :func:`merge_shard_results` can report shard skew.

    On the pool path the task's state is a :class:`_SharedState`: the
    shard runs on its slice of the shared segment, writes its final
    state (and hit times) there, and returns None in their place.
    """
    shared = task.state
    if not isinstance(shared, _SharedState):
        return _run(task)
    with shared.segment:  # maps the segment, and closes it (only its creator unlinks)
        return _run_in_place(task, shared)


def _run_in_place(task: ShardTask, shared: _SharedState):
    """Run a shard on its state in shared memory and write its outputs back.

    A final state of another shape or dtype than the initial one (none
    of the repo's rules makes one) is returned by value instead.  No
    view of the segment outlives this call, so the caller can close it.
    """
    result = _run(replace(task, state=shared.state()))
    written = {}
    final = result.final_state
    if final.shape == shared.shape and final.dtype == shared.dtype:
        shared.state()[...] = final
        written["final_state"] = None
    if shared.hits is not None:
        shared.hit_times()[...] = result.hit_times
        written["hit_times"] = None
    return replace(result, **written)


def _run(task: ShardTask):
    """Execute one shard whose state is an array (see :func:`run_shard`)."""
    from ..engine.engine import SpreadEngine

    topology = task.topology
    if isinstance(topology, SharedGraph):
        graph = _ATTACHED_GRAPHS.get(topology.shm_name)
        if graph is None:
            graph = topology.attach()
            # Release the handle immediately: the graph's zero-copy
            # views keep the mapping alive for this process's lifetime,
            # and a closed handle garbage-collects silently.
            topology.close()
            _ATTACHED_GRAPHS[topology.shm_name] = graph
        topology = graph
    engine = SpreadEngine(task.rule, topology, task.completion)
    tel = get_telemetry()
    span = (
        tel.span(
            "shard.run",
            id_parts=seed_id_parts(task.seed),
            runs=int(task.state.shape[0]),
        )
        if tel.enabled
        else None
    )
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with span if span is not None else contextlib.nullcontext():
        result = engine.run(
            task.state,
            np.random.default_rng(task.seed),
            max_rounds=task.max_rounds,
            track_hits=task.track_hits,
            record_sizes=task.record_sizes,
            record_visited=task.record_visited,
        )
        if span is not None:
            span.annotate(rounds_run=int(result.rounds_run))
    return replace(
        result,
        meta={
            **(result.meta or {}),
            "shard": {
                "runs": int(task.state.shape[0]),
                "rounds_run": int(result.rounds_run),
                "wall_s": time.perf_counter() - wall0,
                "cpu_s": time.process_time() - cpu0,
                "pid": os.getpid(),
                "max_rss": max_rss_bytes(),
            }
        },
    )


def execute_shards(tasks: Sequence[ShardTask], workers: int | None = None) -> list:
    """Run shard tasks on the local pool, serially or across processes.

    :func:`~repro.parallel.parallel_map` with ``chunk_size=1``: shards
    are few and heavy, so eager redistribution beats amortised IPC.
    Output order matches input order, and because every task carries
    its own spawned seed the results are identical at any ``workers``.

    When a pool runs them, the tasks travel by reference (see
    :func:`_by_reference`): each result's final state and hit times are
    copied out of the shared segment once, before it is unlinked.
    """
    tasks = list(tasks)
    workers = default_workers() if workers is None else int(workers)
    if min(workers, len(tasks)) <= 1:
        return [run_shard(task) for task in tasks]
    with contextlib.ExitStack() as segments:
        shipped = _by_reference(tasks, segments)
        results = parallel_map(run_shard, shipped, n_workers=workers, chunk_size=1)
        return [
            _collect(task.state, result) for task, result in zip(shipped, results)
        ]


def _by_reference(tasks: list, segments: contextlib.ExitStack) -> list:
    """``tasks`` as a pool receives them: graph and states in shared memory.

    A static graph all tasks share becomes one
    :class:`~repro.graphs.SharedGraph`; every state goes into one
    :class:`~repro.graphs.SharedSegment`, 64-byte aligned, with room
    after it for the shard's hit times when they are tracked.  Both
    segments are entered on ``segments``, so the creator unlinks them
    however the pool call ends.
    """
    topology = tasks[0].topology
    if isinstance(topology, Graph) and all(
        task.topology is topology for task in tasks
    ):
        shared = segments.enter_context(topology.to_shared())
        tasks = [replace(task, topology=shared) for task in tasks]
    places, size = [], 0
    for task in tasks:
        runs, n = task.state.shape[0], task.topology.n
        offset, size = size, _aligned(size + task.state.nbytes)
        hits = None
        if task.track_hits:
            hits, size = size, _aligned(size + runs * n * 8)
        places.append((offset, n, hits))
    segment = segments.enter_context(SharedSegment.create(size))
    shipped = []
    for task, (offset, n, hits) in zip(tasks, places):
        state = task.state
        shared = _SharedState(segment, offset, state.shape, state.dtype.str, n, hits)
        shared.state()[...] = state
        shipped.append(replace(task, state=shared))
    return shipped


def _aligned(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of 64 (a cache line)."""
    return -(-nbytes // 64) * 64


def _collect(shared: _SharedState, result):
    """``result`` with what its shard wrote to shared memory copied back in."""
    copied = {}
    if result.final_state is None:
        copied["final_state"] = shared.state().copy()
    if shared.hits is not None:
        copied["hit_times"] = shared.hit_times().copy()
    return replace(result, **copied)


def execute_cached(
    tasks: Sequence[ShardTask],
    workers: int | None = None,
    *,
    endpoint: str | None = None,
    cache="auto",
    retry=None,
    fallback="default",
) -> list:
    """Run shard tasks through the result cache, on a broker or the local pool.

    The one executor behind :func:`run_sharded`.  Each task's content
    address (:func:`repro.distributed.wire.task_key`) is looked up once;
    only the misses run — on the broker at ``endpoint`` when one is
    given, else on the local pool (:func:`execute_shards`) — and every
    fresh result is stored as it arrives (from the broker shard by
    shard, from the pool when it returns), so a rerun after a crash
    recomputes only the shards no earlier run stored.  The cache is the
    only checkpoint.

    ``cache="auto"`` is ``REPRO_CACHE_DIR``'s store on the broker tier
    and no store on the local one; a
    :class:`~repro.distributed.ResultCache` or a path is used on both
    tiers, and None disables caching.  ``retry`` is the
    :class:`~repro.resilience.RetryPolicy` for transport retries against
    the broker (None: ``RetryPolicy()``), and ``fallback="local"``
    finishes on the local pool whatever shards an unreachable broker
    left undone (``"default"``: :func:`repro.resilience.configure`).
    Results come back in task order, bit-identical on every tier.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    workers = default_workers() if workers is None else int(workers)
    results: list = [None] * len(tasks)
    store = None
    if endpoint is not None or cache != "auto":
        from ..distributed.cache import resolve_cache

        store = resolve_cache(cache)
    if store is not None or endpoint is not None:
        # The wire encoding is both the broker's payload and the content
        # address; a plain local run never computes it.
        from ..distributed import client

        encoded, keys, results = client.cache_lookup(tasks, store)
    missing = [i for i, result in enumerate(results) if result is None]
    if endpoint is not None and missing:
        from ..distributed.wire import graph_blobs
        from ..resilience import RetryPolicy, resolve_fallback

        policy = RetryPolicy() if retry is None else retry
        fallback_mode = resolve_fallback(fallback)

        def deliver(index: int, result, payload: dict) -> None:
            results[index] = result
            if store is not None:
                store.put(keys[index], payload)

        try:
            client.run_on_broker(
                {i: encoded[i] for i in missing},
                graph_blobs(tasks[i] for i in missing),
                endpoint,
                policy,
                deliver,
            )
        except client.BrokerUnavailable as exc:
            if fallback_mode != "local":
                raise
            tel = get_telemetry()
            tel.count("client.fallbacks")
            if tel.enabled:
                tel.event(
                    "client.fallback",
                    endpoint=str(endpoint),
                    mode="local",
                    cause=str(exc),
                )
        missing = [i for i in missing if results[i] is None]
    if missing:
        fresh = execute_shards([tasks[i] for i in missing], workers)
        for index, result in zip(missing, fresh):
            results[index] = result
            if store is not None:
                store.put(keys[index], result)
    return results


def _pad_trajectories(parts: list[np.ndarray], width: int) -> np.ndarray:
    """Stack per-shard ``(R_i, T_i + 1)`` series on a common round axis.

    Shards stop recording when their last run completes, so a shard
    shorter than ``width`` is continued with its final column — the
    terminal-value convention of
    :class:`repro.core.trajectories.TrajectoryEnsemble` (correct for
    the monotone visited counts; for occupancy sizes it holds each
    run's last recorded value).
    """
    padded = []
    for part in parts:
        if part.shape[1] < width:
            tail = np.repeat(part[:, -1:], width - part.shape[1], axis=1)
            part = np.concatenate([part, tail], axis=1)
        padded.append(part)
    return np.concatenate(padded, axis=0)


def _merge_meta(results: Sequence) -> dict | None:
    """Aggregate per-shard timing metas into the merged result's meta.

    Shards that carry no timings (results decoded from the wire, which
    deliberately strips ``meta``) are skipped; with none at all the
    merged meta is None.  ``skew`` is max/median shard wall time — the
    load-balance figure the ROADMAP's bench caveat asks for.
    """
    shards = []
    for index, result in enumerate(results):
        meta = getattr(result, "meta", None)
        if meta and "shard" in meta:
            shards.append({"index": index, **meta["shard"]})
    if not shards:
        return None
    walls = [s["wall_s"] for s in shards]
    wall_stats = summarize_values(walls)
    rss = [s["max_rss"] for s in shards if s.get("max_rss")]
    return {
        "shards": shards,
        "wall_s": wall_stats,
        "cpu_s": summarize_values([s["cpu_s"] for s in shards]),
        "skew": (
            wall_stats["max"] / wall_stats["p50"]
            if wall_stats["p50"] > 0
            else 1.0
        ),
        "workers": len({s["pid"] for s in shards}),
        # Peak RSS over the contributing processes (observability only,
        # like everything else in meta): the memory-pressure signal
        # ROADMAP item 2's million-vertex scenarios need.
        "max_rss": max(rss) if rss else None,
    }


def merge_shard_results(results: Sequence):
    """Merge per-shard SpreadResults into one, in shard order.

    ``finish_times`` / ``final_state`` / ``hit_times`` concatenate
    along the run axis; ``rounds_run`` is the max over shards; recorded
    trajectories are aligned with terminal-value padding (see
    :func:`_pad_trajectories`).  An empty sequence (the R = 0 plan)
    merges into a well-formed zero-run result rather than raising, so
    callers need no guard around degenerate plans.

    The merged ``meta`` aggregates whatever per-shard timings the
    results carry (see :func:`_merge_meta`): the shard table, wall/CPU
    summaries, and the max/median wall-time ``skew``.
    """
    from ..engine.engine import SpreadResult

    results = list(results)
    if not results:
        return SpreadResult(
            finish_times=np.empty(0, dtype=np.int64),
            rounds_run=0,
            final_state=np.empty((0, 0), dtype=bool),
        )
    if len(results) == 1:
        return replace(results[0], meta=_merge_meta(results))
    width = max(r.rounds_run for r in results) + 1
    return SpreadResult(
        finish_times=np.concatenate([r.finish_times for r in results]),
        rounds_run=max(r.rounds_run for r in results),
        final_state=np.concatenate([r.final_state for r in results], axis=0),
        hit_times=(
            np.concatenate([r.hit_times for r in results], axis=0)
            if results[0].hit_times is not None
            else None
        ),
        sizes=(
            _pad_trajectories([r.sizes for r in results], width)
            if results[0].sizes is not None
            else None
        ),
        visited_counts=(
            _pad_trajectories([r.visited_counts for r in results], width)
            if results[0].visited_counts is not None
            else None
        ),
        meta=_merge_meta(results),
    )


def _empty_result(
    state: np.ndarray,
    n: int,
    *,
    track_hits: bool,
    record_sizes: bool,
    record_visited: bool,
):
    """A well-formed SpreadResult for an R = 0 invocation."""
    from ..engine.engine import SpreadResult

    return SpreadResult(
        finish_times=np.empty(0, dtype=np.int64),
        rounds_run=0,
        final_state=state.copy(),
        hit_times=np.empty((0, n), dtype=np.int64) if track_hits else None,
        sizes=np.empty((0, 1), dtype=np.int64) if record_sizes else None,
        visited_counts=(
            np.empty((0, 1), dtype=np.int64) if record_visited else None
        ),
    )


def run_sharded(
    rule,
    topology,
    completion,
    state: np.ndarray,
    seed,
    *,
    workers: int | None = None,
    max_rounds: int | None = None,
    track_hits: bool = False,
    record_sizes: bool = False,
    record_visited: bool = False,
    max_shard: int = DEFAULT_MAX_SHARD,
    endpoint: str | None = None,
    cache="auto",
    retry=None,
    fallback="default",
):
    """Shard one engine invocation's R axis across worker processes.

    ``state`` is the full rule-specific initial state (one row per
    run); it is split into :func:`plan_shards` row blocks, each driven
    by a generator spawned from ``seed`` (anything
    :func:`repro.stats.rng.seed_sequence_from` accepts), and the shard
    tasks run through :func:`execute_cached`: on the local pool, or on
    the broker at ``endpoint`` (``host:port``), with ``cache``,
    ``retry`` and ``fallback`` as documented there.  Returns a merged
    :class:`~repro.engine.SpreadResult`, bit-for-bit identical for every
    ``workers`` value and on both tiers (an ``R = 0`` state merges into
    a well-formed empty result).
    """
    from ..engine.engine import as_topology

    topo = as_topology(topology)
    runs = state.shape[0]
    if runs == 0:
        return _empty_result(
            state,
            topo.n,
            track_hits=track_hits,
            record_sizes=record_sizes,
            record_visited=record_visited,
        )
    shard_sizes = plan_shards(rule, runs, topo.n, max_shard=max_shard)
    master = seed_sequence_from(seed)
    seeds = spawn_seeds(master, len(shard_sizes))
    workers = default_workers() if workers is None else int(workers)
    workers = min(workers, len(shard_sizes))

    tel = get_telemetry()
    span = (
        tel.span(
            "engine.run_sharded",
            id_parts=seed_id_parts(master),
            runs=int(runs),
            shards=len(shard_sizes),
            workers=int(workers),
            transport="broker" if endpoint is not None else "pool",
        )
        if tel.enabled
        else None
    )
    # Install a trace context for the span's duration: its trace id is a
    # pure function of the master seed (same derivation machinery as the
    # span ids), and its parent is this span — so spans opened in
    # processes with no local stack (remote workers via the wire's
    # optional trace key, the broker's job span) stitch under this tree.
    scope = contextlib.ExitStack()
    if span is not None:
        ctx = tel.current_context()
        trace_id = (
            ctx.trace_id
            if ctx is not None
            else span_id_from("trace", *seed_id_parts(master))
        )
        prev_ctx = tel.install_context(
            TraceContext(trace_id=trace_id, parent_span_id=span.span_id)
        )
        scope.callback(tel.install_context, prev_ctx)
        scope.enter_context(span)
    with scope:
        # Observing topologies (adaptive adversaries) accumulate a per-run
        # observation log, so one instance cannot serve several engine
        # invocations: every shard gets its own pristine replay.  Oblivious
        # sequences return themselves and still ship as one object.
        fresh = getattr(topo, "fresh_replay", None)
        per_shard_topo = (
            fresh if getattr(topo, "observes_process", False) and fresh else None
        )
        bounds = np.concatenate([[0], np.cumsum(shard_sizes)])
        tasks = [
            ShardTask(
                rule=rule,
                topology=topo if per_shard_topo is None else per_shard_topo(),
                completion=completion,
                state=state[lo:hi],
                seed=s,
                max_rounds=max_rounds,
                track_hits=track_hits,
                record_sizes=record_sizes,
                record_visited=record_visited,
            )
            for lo, hi, s in zip(bounds[:-1], bounds[1:], seeds)
        ]
        results = execute_cached(
            tasks,
            workers,
            endpoint=endpoint,
            cache=cache,
            retry=retry,
            fallback=fallback,
        )
        merged = merge_shard_results(results)
        if span is not None:
            skew = (merged.meta or {}).get("skew")
            span.annotate(rounds_run=int(merged.rounds_run), skew=skew)
    return merged
