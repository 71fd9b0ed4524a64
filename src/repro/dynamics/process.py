"""Dynamic COBRA / BIPS samplers over a :class:`GraphSequence`.

A :class:`~repro.dynamics.sequence.GraphSequence` is a topology source
of the unified batched engine (:mod:`repro.engine`), so the dynamic
processes are :class:`~repro.core.cobra.CobraProcess` and
:class:`~repro.core.bips.BipsProcess` bound to a sequence instead of a
graph.  This module holds the two dynamic samplers, and their
``sequence`` argument picks the estimator:

* a :class:`GraphSequence` is *one* topology realisation that every
  run replays (quenched statistics).  The runs are drawn through
  :meth:`~repro.engine.SpreadEngine.run_sharded` exactly like the
  static samplers', so ``workers`` and ``endpoint`` pick only the tier
  and the samples depend only on the seed, the run count and the shard
  cap.  An observing sequence (an adaptive adversary) gets a fresh
  replay per shard.
* a factory ``topology_seed -> GraphSequence`` gives every run its own
  realisation (annealed statistics).  Run ``i`` splits
  ``spawn_seeds(seed, runs)[i]`` into a topology seed, fed to the
  factory, and a process seed, fed to one ``R = 1`` engine run; one
  sequence is realised, run and dropped at a time.  These runs execute
  in this process, so ``workers`` and ``endpoint`` are refused.

Randomness contract: the process consumes only its own generators,
while the sequence owns its private *topology* stream.  On a
:class:`~repro.dynamics.sequence.FrozenSequence` the per-round draws
are bit-identical to the static engines', so
``dynamic_cover_time_samples(FrozenSequence(g), runs, seed=s)`` equals
``cover_time_samples(g, 0, runs, rng=s)`` exactly (and likewise for
infection) — the regression anchor for dynamic-graph audits.

Snapshots may be momentarily disconnected or contain degree-zero
vertices (churned-out peers, edge-Markovian lulls).  COBRA particles
on an isolated vertex hold their position for the round; an isolated
vertex cannot be infected by BIPS (its selections are empty) and drops
out of the infected set unless it is the persistent source.  Because
"all ``n`` at once" is unreachable at moderate churn rates, every
sampler accepts a churn-aware ``completion`` criterion:
``"all-vertices"`` (default), ``"all-active"`` (every currently-present
vertex), or a :class:`~repro.engine.completion.CompletionCriterion`
such as ``TargetHit(v)``.
"""

from __future__ import annotations

import numpy as np

from ..core.branching import BranchingPolicy, make_policy
from ..core.cobra import _start_state
from ..engine.engine import SpreadEngine
from ..engine.rules import BipsRule, CobraRule
from ..parallel.sharding import finished_times_or_raise
from ..stats.rng import spawn_seeds
from .sequence import GraphSequence

__all__ = [
    "dynamic_cover_time_samples",
    "dynamic_infection_time_samples",
]


def _dynamic_times(
    sequence,
    runs: int,
    rule,
    vertex: int,
    *,
    seed,
    max_rounds: int | None,
    completion,
    workers: int | None,
    endpoint: str | None,
    what: str,
) -> np.ndarray:
    """Finish times of ``runs`` runs of ``rule`` started at ``vertex``.

    The shared body of both samplers: a :class:`GraphSequence` is
    replayed by every run on the sharded stream, a factory realises one
    sequence per run (see the module docstring).
    """
    if isinstance(sequence, GraphSequence):
        res = SpreadEngine(rule, sequence, completion).run_sharded(
            _start_state(sequence, vertex, runs),
            seed,
            workers=1 if workers is None else int(workers),
            max_rounds=max_rounds,
            endpoint=endpoint,
        )
        return finished_times_or_raise(
            res.finish_times, f"dynamic {what} on {sequence.name}"
        )
    if not callable(sequence):
        raise TypeError("expected a GraphSequence or a factory seed -> GraphSequence")
    if workers is not None or endpoint is not None:
        raise ValueError(
            "workers/endpoint shard the runs on one GraphSequence; a "
            "factory realises a sequence per run, in this process"
        )
    times = np.empty(int(runs), dtype=np.int64)
    for i, child in enumerate(spawn_seeds(seed, int(runs))):
        topology_seed, process_seed = child.spawn(2)
        seq = sequence(topology_seed)
        if not isinstance(seq, GraphSequence):
            raise TypeError("sequence factory must return a GraphSequence")
        res = SpreadEngine(rule, seq.fresh_replay(), completion).run(
            _start_state(seq, vertex, 1),
            np.random.default_rng(process_seed),
            max_rounds=max_rounds,
        )
        if res.finish_times[0] < 0:
            raise RuntimeError(
                f"dynamic {what} run {i} on {seq.name} hit the round cap "
                f"({res.rounds_run} rounds)"
            )
        times[i] = res.finish_times[0]
    return times


def dynamic_cover_time_samples(
    sequence,
    runs: int = 32,
    *,
    start: int = 0,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    seed: int | np.random.SeedSequence = 0,
    max_rounds: int | None = None,
    completion: str = "all-vertices",
    workers: int | None = None,
    endpoint: str | None = None,
) -> np.ndarray:
    """Sample dynamic COBRA cover times from ``start``.

    ``sequence`` is a shared :class:`GraphSequence` (every run replays
    the same topology realisation; ``workers`` / ``endpoint`` pick the
    tier as in :func:`repro.core.cobra.cover_time_samples`) or a
    factory ``topology_seed -> GraphSequence`` (every run draws an
    independent realisation, one at a time in this process).  Raises if
    any run hits the round cap.
    """
    return _dynamic_times(
        sequence,
        runs,
        CobraRule(make_policy(branching), lazy=lazy),
        start,
        seed=seed,
        max_rounds=max_rounds,
        completion=completion,
        workers=workers,
        endpoint=endpoint,
        what="COBRA",
    )


def dynamic_infection_time_samples(
    sequence,
    runs: int = 32,
    *,
    source: int = 0,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    seed: int | np.random.SeedSequence = 0,
    max_rounds: int | None = None,
    completion: str = "all-vertices",
    workers: int | None = None,
    endpoint: str | None = None,
) -> np.ndarray:
    """Sample dynamic BIPS infection times from ``source`` (see above)."""
    return _dynamic_times(
        sequence,
        runs,
        BipsRule(make_policy(branching), int(source), lazy=lazy),
        source,
        seed=seed,
        max_rounds=max_rounds,
        completion=completion,
        workers=workers,
        endpoint=endpoint,
        what="BIPS",
    )
