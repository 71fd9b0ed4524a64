"""The unified batched round engine: one ``(R, n)`` state machine.

:class:`SpreadEngine` advances ``R`` independent runs of any
:class:`~repro.engine.rules.SpreadRule` over any topology source — a
static :class:`~repro.graphs.Graph` or a time-evolving
:class:`~repro.dynamics.GraphSequence` — until a
:class:`~repro.engine.completion.CompletionCriterion` is met or a
round cap is hit.  State has one row per run.  Every random process in
the repo (COBRA, BIPS, push, pull, push–pull, k walks, and their
dynamic variants) is a thin wrapper over this one loop (flooding,
which draws nothing, is a BFS: :mod:`repro.baselines.flooding`)::

    engine = SpreadEngine(CobraRule(policy), graph)          # static
    engine = SpreadEngine(BipsRule(policy, 0), sequence,      # dynamic
                          completion="all-active")
    result = engine.run(state0, rng, track_hits=True)

The engine owns everything the wrappers used to duplicate: the round
loop, the cumulative visited set, per-vertex hit times, per-round size
and coverage recording, completion testing, and cap derivation (rules
declare their cap through :mod:`repro.engine.caps`).  Randomness flows
through the rule kernels in the historical order, so wrappers retain
their seed-for-seed behaviour (see :mod:`repro.engine.rules`).

Topology duck-typing: any object with ``.n`` and ``.graph_at(t)`` is a
topology source; plain graphs are wrapped in :class:`StaticTopology`
(equivalent to, but dependency-free of,
:class:`repro.dynamics.FrozenSequence`).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..graphs.graph import Graph
from ..telemetry import get_telemetry
from .completion import CompletionCriterion, make_completion
from .observation import FrontierObservation
from .rules import SpreadRule

__all__ = ["SpreadEngine", "SpreadResult", "StaticTopology", "as_topology"]

# Allocator warm-up, once per process.  When glibc frees a block it had
# memory-mapped, it raises its mmap threshold to that block's size (up
# to 32 MiB) and its trim threshold to twice that.  Freeing one 16 MiB
# block here lets a round's temporaries (up to a few MiB each) come
# from the heap and stay there, instead of being mapped, faulted in and
# unmapped every round.  Under another malloc this is just a
# short-lived allocation.
np.empty(16 << 20, dtype=np.uint8)


class StaticTopology:
    """Adapter presenting a static :class:`Graph` as a snapshot source.

    Behaviourally identical to
    :class:`repro.dynamics.FrozenSequence`, but defined here so the
    engine package has no dependency on :mod:`repro.dynamics`.
    """

    def __init__(self, graph: Graph) -> None:
        self.base = graph
        self.n = graph.n
        self.name = graph.name

    def graph_at(self, t: int) -> Graph:
        """Every round sees the same static graph."""
        return self.base


def as_topology(source):
    """Coerce a topology source: graphs are wrapped, sequences pass through.

    Any object exposing ``.n`` and ``.graph_at(t)`` (in particular every
    :class:`repro.dynamics.GraphSequence`) is accepted as-is.
    """
    if isinstance(source, Graph):
        return StaticTopology(source)
    if hasattr(source, "graph_at") and hasattr(source, "n"):
        return source
    raise TypeError(
        f"expected a Graph or a graph-sequence-like object, got {source!r}"
    )


@dataclass(frozen=True)
class SpreadResult:
    """Outcome of ``R`` engine runs advanced together.

    Attributes
    ----------
    finish_times:
        ``(R,)`` first round at which each run met the completion
        criterion; ``-1`` for runs that hit the round cap.
    rounds_run:
        Number of rounds actually simulated (the max over runs).
    final_state:
        The rule-specific state array after the last simulated round.
    hit_times:
        ``(R, n)`` per-vertex first-visit round (``-1`` = never), when
        requested via ``track_hits``.
    sizes:
        ``(R, rounds_run + 1)`` per-round occupancy counts, when
        requested via ``record_sizes``.
    visited_counts:
        ``(R, rounds_run + 1)`` per-round cumulative distinct-visited
        counts, when requested via ``record_visited``.
    meta:
        Observability side-channel (never part of the scientific
        payload): the sharded runner records per-shard wall/CPU
        timings and skew here (see
        :func:`repro.parallel.merge_shard_results`).  Excluded from
        the wire encoding and from every bit-identity comparison —
        two runs of the same seed are equal in all other fields even
        though their ``meta`` timings differ.
    """

    finish_times: np.ndarray
    rounds_run: int
    final_state: np.ndarray
    hit_times: np.ndarray | None = None
    sizes: np.ndarray | None = None
    visited_counts: np.ndarray | None = None
    meta: dict | None = None

    @property
    def all_finished(self) -> bool:
        """True iff every run completed within the round cap."""
        return bool(np.all(self.finish_times >= 0))

    def finished_fraction(self) -> float:
        """Fraction of runs that completed within the round cap."""
        return float(np.mean(self.finish_times >= 0))


class SpreadEngine:
    """A spread rule bound to a topology source and completion criterion.

    Parameters
    ----------
    rule:
        The per-round kernel (see :mod:`repro.engine.rules`).
    topology:
        A static :class:`~repro.graphs.Graph` or any object with
        ``.n`` / ``.graph_at(t)`` (e.g. a
        :class:`repro.dynamics.GraphSequence`).
    completion:
        ``"all-vertices"`` (default), ``"all-active"``, or a
        :class:`~repro.engine.completion.CompletionCriterion` such as
        ``TargetHit(v)``.
    """

    def __init__(
        self,
        rule: SpreadRule,
        topology,
        completion: "CompletionCriterion | str" = "all-vertices",
    ) -> None:
        self.rule = rule
        self.topology = as_topology(topology)
        self.completion = make_completion(completion)

    # ------------------------------------------------------------------
    def default_cap(self) -> int:
        """The rule's round cap derived from the round-0 snapshot."""
        return self.rule.default_cap(self.topology.graph_at(0))

    # ------------------------------------------------------------------
    def run(
        self,
        state: np.ndarray,
        rng: np.random.Generator,
        *,
        max_rounds: int | None = None,
        track_hits: bool = False,
        record_sizes: bool = False,
        record_visited: bool = False,
        on_round: Callable[[int, Graph, np.ndarray], None] | None = None,
    ) -> SpreadResult:
        """Advance all runs until completion or the round cap.

        ``state`` is the rule-specific initial state (round-0); it is
        not mutated.  ``on_round(t, graph, state)`` is called before
        each executed round with the snapshot in force and the
        (read-only) state entering the round — the hook BIPS candidate
        and degree recording is built on.  Transition ``t → t+1`` uses
        ``topology.graph_at(t)``, so round counting matches both the
        historical static and dynamic loops.

        Topologies with ``observes_process = True`` (adaptive
        adversaries, see :mod:`repro.engine.observation`) receive one
        :class:`FrontierObservation` per round, delivered before the
        round's ``graph_at(t)`` call, so the snapshot may react to the
        state about to act on it.

        Each round calls the step :func:`repro.kernels.dispatch.resolve`
        picks for this run: the rule's own ``step``, or numba's fused
        kernel for COBRA and BIPS on large graphs where numba is
        installed — bit-identical either way, and never set by the
        caller.

        With telemetry enabled (see :mod:`repro.telemetry`) the run is
        wrapped in an ``engine.run`` span, and every sampled round
        emits an ``engine.round`` progress event plus
        ``engine.round.seconds`` / ``engine.round.occupied``
        histogram observations.  Instrumentation only *reads* state
        and clocks — it draws no randomness — so traced and untraced
        runs are bit-identical.
        """
        from ..kernels import dispatch

        topo = self.topology
        observer = (
            topo.observe if getattr(topo, "observes_process", False) else None
        )
        n = topo.n
        runs = state.shape[0]
        cap = self.default_cap() if max_rounds is None else int(max_rounds)

        binding = dispatch.resolve(self.rule, n=n, runs=runs)

        tel = get_telemetry()
        trace = tel.enabled
        span = (
            tel.span(
                "engine.run",
                rule=type(self.rule).__name__,
                topology=getattr(topo, "name", type(topo).__name__),
                runs=int(runs),
                n=int(n),
                cap=int(cap),
                backend=binding.backend,
            )
            if trace
            else None
        )
        with span if span is not None else contextlib.nullcontext():
            result = self._run_loop(
                binding.step,
                topo,
                observer,
                state,
                rng,
                runs=runs,
                n=n,
                cap=cap,
                track_hits=track_hits,
                record_sizes=record_sizes,
                record_visited=record_visited,
                on_round=on_round,
                tel=tel,
                trace=trace,
            )
            if span is not None:
                span.annotate(
                    rounds_run=int(result.rounds_run),
                    finished=int((result.finish_times >= 0).sum()),
                )
        return result

    def _run_loop(
        self,
        step,
        topo,
        observer,
        state: np.ndarray,
        rng: np.random.Generator,
        *,
        runs: int,
        n: int,
        cap: int,
        track_hits: bool,
        record_sizes: bool,
        record_visited: bool,
        on_round,
        tel,
        trace: bool,
    ) -> SpreadResult:
        """The round loop proper (see :meth:`run` for the contract)."""
        rule = self.rule
        occ = rule.occupancy(state, n)
        monotone = rule.completion_basis == "visited"
        visited = remaining = None
        if monotone or track_hits or record_visited:
            visited = occ.copy()
            remaining = n - visited.sum(axis=1)
        hits = None
        if track_hits:
            hits = np.full((runs, n), -1, dtype=np.int64)
            hits[occ] = 0

        times = np.full(runs, -1, dtype=np.int64)
        # An observer sees the visited set only where completion rests on
        # it: what the caller records must not change what it sees.
        shown = visited if monotone else None
        if observer is not None:
            observer(
                FrontierObservation(
                    t=0,
                    occupied=occ,
                    visited=shown,
                    alive=np.ones(runs, dtype=bool),
                )
            )
        graph = topo.graph_at(0)
        basis = visited if monotone else occ
        times[self.completion.done(basis, graph, remaining if monotone else None)] = 0

        sizes = [occ.sum(axis=1)] if record_sizes else None
        visited_counts = [n - remaining] if record_visited else None

        # Rules touching only a few vertices per round (walks) publish
        # sparse (run, vertex) coordinates; updating visited from those
        # avoids the O(R·n) dense scan per round.
        touched = getattr(rule, "touched", None)
        use_sparse = (
            touched is not None
            and visited is not None
            and monotone
            and not record_sizes
        )

        t = 0
        while np.any(times < 0) and t < cap:
            alive = times < 0
            if observer is not None and t > 0:
                observer(
                    FrontierObservation(
                        t=t,
                        occupied=rule.occupancy(state, n),
                        visited=shown,
                        alive=alive,
                    )
                )
            # Sampled per-round progress: read-only aggregates of the
            # state entering round t (no draws, so traced == untraced).
            emit = trace and tel.sampled(t)
            if emit:
                alive_count = int(alive.sum())
                occupied_now = int(rule.occupancy(state, n).sum())
                tel.event(
                    "engine.round",
                    t=t,
                    alive=alive_count,
                    finished=int(runs - alive_count),
                    occupied=occupied_now,
                    informed=(
                        None if visited is None else int(visited.sum())
                    ),
                )
                tel.observe("engine.round.occupied", float(occupied_now))
                round_wall0 = time.perf_counter()
            graph = topo.graph_at(t)
            if on_round is not None:
                on_round(t, graph, state)
            state = step(graph, state, alive, rng)
            if emit:
                tel.observe(
                    "engine.round.seconds", time.perf_counter() - round_wall0
                )
            t += 1
            if use_sparse:
                rows, verts = touched(state, n)
                keep = alive[rows] & ~visited[rows, verts]
                rows, verts = rows[keep], verts[keep]
                visited[rows, verts] = True
                if hits is not None:
                    hits[rows, verts] = t
                remaining -= np.bincount(rows, minlength=runs)
                basis = visited
            else:
                occ = rule.occupancy(state, n)
                if visited is not None:
                    fresh = occ & ~visited
                    if not alive.all():
                        fresh[~alive] = False
                    visited |= fresh
                    if hits is not None:
                        hits[fresh] = t
                    # The uint8 view summed into uint32: the same counts
                    # as bool's int64 sum, in about half the time.
                    remaining -= fresh.view(np.uint8).sum(axis=1, dtype=np.uint32)
                basis = visited if monotone else occ
            done_now = alive & self.completion.done(
                basis, graph, remaining if monotone else None
            )
            times[done_now] = t
            if record_sizes:
                sizes.append(occ.sum(axis=1))
            if record_visited:
                visited_counts.append(n - remaining)

        return SpreadResult(
            finish_times=times,
            rounds_run=t,
            final_state=state,
            hit_times=hits,
            sizes=np.column_stack(sizes) if record_sizes else None,
            visited_counts=(
                np.column_stack(visited_counts) if record_visited else None
            ),
        )

    # ------------------------------------------------------------------
    def run_sharded(
        self,
        state: np.ndarray,
        seed,
        *,
        workers: int | None = None,
        max_rounds: int | None = None,
        track_hits: bool = False,
        record_sizes: bool = False,
        record_visited: bool = False,
        max_shard: int | None = None,
        endpoint: str | None = None,
        cache="auto",
        retry=None,
        fallback="default",
    ) -> SpreadResult:
        """Advance the runs sharded across worker processes.

        The multiprocess counterpart of :meth:`run`: ``state`` (one row
        per run) is split into deterministic shards (sized by
        :func:`repro.parallel.plan_shards` under a fixed per-shard
        memory budget), each driven by a generator spawned from
        ``seed``, and the shards execute across ``workers`` processes —
        a static topology's CSR arrays travel through shared memory
        (:meth:`repro.graphs.Graph.to_shared`), attached zero-copy per
        worker.  Because the shard plan and the spawned seeds never
        depend on the worker count, the merged :class:`SpreadResult` is
        bit-for-bit identical for every ``workers`` value, including
        the ``workers=1`` in-process fallback.  Note the contract
        difference from :meth:`run`: randomness comes from a spawnable
        ``seed``, not a shared ``Generator`` stream.

        Recorded trajectories (``record_sizes`` / ``record_visited``)
        are merged across shards on a common round axis with
        terminal-value padding — the engine-level one-pass recorder the
        analysis ensembles are built on.

        Each shard's engine picks its own per-round kernel exactly as
        :meth:`run` does, so no kernel choice crosses the process or
        wire boundary.

        ``endpoint`` routes the same shard plan through a
        :mod:`repro.distributed` broker instead of the local pool;
        ``cache``, ``retry`` and ``fallback`` are as in
        :func:`repro.parallel.execute_cached` (the result cache, which
        is also the resume point after a crash; transport retries; and
        finishing locally when the broker is unreachable).
        """
        from ..parallel import sharding

        return sharding.run_sharded(
            self.rule,
            self.topology,
            self.completion,
            state,
            seed,
            workers=workers,
            max_rounds=max_rounds,
            track_hits=track_hits,
            record_sizes=record_sizes,
            record_visited=record_visited,
            max_shard=(
                sharding.DEFAULT_MAX_SHARD if max_shard is None else int(max_shard)
            ),
            endpoint=endpoint,
            cache=cache,
            retry=retry,
            fallback=fallback,
        )

    #: :meth:`run_sharded` with an ``endpoint``: the broker tier.
    run_distributed = run_sharded
