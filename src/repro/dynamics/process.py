"""Dynamic COBRA / BIPS samplers over a :class:`GraphSequence`.

A :class:`~repro.dynamics.sequence.GraphSequence` is a topology source
of the unified batched engine (:mod:`repro.engine`), so the dynamic
processes are :class:`~repro.core.cobra.CobraProcess` and
:class:`~repro.core.bips.BipsProcess` bound to a sequence instead of a
graph: ``run`` is the ``R = 1`` case and ``run_batch`` advances ``R``
runs sharing one topology realisation.  This module holds the seeding
discipline and the samplers built on them.

Randomness contract: a runner consumes exactly one
:class:`numpy.random.Generator` for *process* randomness, while the
sequence owns its private *topology* stream.  On a
:class:`~repro.dynamics.sequence.FrozenSequence` the per-round draws
are bit-identical to the static engines', so frozen dynamic runs
reproduce static cover/infection samples exactly under the same seed —
the regression anchor for duality/coupling audits on dynamic graphs.

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

from ..core.bips import BipsProcess
from ..core.branching import BranchingPolicy, make_policy
from ..core.cobra import CobraProcess
from ..engine.rules import BipsRule, CobraRule
from ..graphs.validation import check_vertex
from ..stats.rng import spawn_seeds
from .sequence import GraphSequence

__all__ = [
    "dynamic_cover_time_samples",
    "dynamic_infection_time_samples",
    "dynamic_cover_time_batch",
    "dynamic_infection_time_batch",
    "run_seed_pairs",
    "batch_seed_pair",
]


# ----------------------------------------------------------------------
# Seeding and sampling helpers
# ----------------------------------------------------------------------
def run_seed_pairs(
    seed: int | np.random.SeedSequence, runs: int
) -> list[tuple[np.random.SeedSequence, np.random.SeedSequence]]:
    """Spawn ``(topology, process)`` seed pairs, one per run.

    This is the published spawning discipline of the per-run samplers
    below: one child per run, each split into a topology stream (fed to
    the sequence factory) and a process stream (fed to the runner) — so
    audits can regenerate either stream independently.
    """
    return [tuple(child.spawn(2)) for child in spawn_seeds(seed, runs)]


def batch_seed_pair(
    seed: int | np.random.SeedSequence,
) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Split a master seed into one ``(topology, process)`` pair.

    The batched samplers use a single pair for the whole batch: one
    topology realisation shared by all runs, one process stream driving
    the ``(R, n)`` program.  Published so experiment code (e.g. E16's
    static-anchor checks) can regenerate either stream independently.
    """
    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    topo, proc = ss.spawn(2)
    return topo, proc


def _resolve_sequence(sequence, topology_seed, *, fresh: bool = False) -> GraphSequence:
    """Coerce a sequence-or-factory argument into a :class:`GraphSequence`.

    With ``fresh=True`` the result goes through
    :meth:`GraphSequence.fresh_replay` — a no-op for oblivious
    sequences, but mandatory before handing an *observing* sequence
    (``observes_process = True``, e.g. an adversarial topology) to a
    new engine invocation: each invocation must drive its own pristine
    replay log.
    """
    if isinstance(sequence, GraphSequence):
        return sequence.fresh_replay() if fresh else sequence
    if callable(sequence):
        made = sequence(topology_seed)
        if not isinstance(made, GraphSequence):
            raise TypeError("sequence factory must return a GraphSequence")
        return made.fresh_replay() if fresh else made
    raise TypeError("expected a GraphSequence or a factory seed -> GraphSequence")


def _sharded_dynamic_times(
    sequence,
    runs: int,
    rule,
    start_column: int,
    seed,
    *,
    max_rounds: int | None,
    completion: str,
    workers: int | None,
    endpoint: str | None = None,
    cache="auto",
    what: str,
) -> np.ndarray:
    """Shard a dynamic batched sampler over worker processes.

    Each shard realises its *own* :class:`GraphSequence` from the
    topology half of its spawned seed pair (so a factory argument
    yields one independent realisation per shard — between the single
    shared realisation of the plain batch path and the one-per-run of
    the scalar samplers); a plain :class:`GraphSequence` argument is
    shared by every shard, preserving quenched semantics.  The shard
    plan and seeds are independent of ``workers``, so the returned
    samples are identical at any worker count.  The tasks run through
    :func:`repro.parallel.execute_cached` like every sharded run: with
    ``endpoint`` set they go to a :mod:`repro.distributed` broker — each
    remote worker re-realises its shard's sequence from the wire-
    encoded seed pair — and the samples stay identical.
    """
    from ..engine.completion import make_completion
    from ..parallel.sharding import (
        ShardTask,
        execute_cached,
        finished_times_or_raise,
        merge_shard_results,
        plan_shards,
    )

    # A probe realisation pins n (and validates the start vertex)
    # without consuming any shard's seeds.
    probe_topo, _ = batch_seed_pair(seed)
    probe = _resolve_sequence(sequence, probe_topo)
    n = probe.n
    start_column = check_vertex(probe, start_column)

    shard_sizes = plan_shards(rule, int(runs), n)
    criterion = make_completion(completion)
    tasks = []
    for shard_seed, r in zip(spawn_seeds(seed, len(shard_sizes)), shard_sizes):
        topo_seed, proc_seed = batch_seed_pair(shard_seed)
        state = np.zeros((r, n), dtype=bool)
        state[:, start_column] = True
        tasks.append(
            ShardTask(
                rule=rule,
                topology=_resolve_sequence(sequence, topo_seed, fresh=True),
                completion=criterion,
                state=state,
                seed=proc_seed,
                max_rounds=max_rounds,
            )
        )
    results = execute_cached(tasks, workers, endpoint=endpoint, cache=cache)
    res = merge_shard_results(results)
    return finished_times_or_raise(res.finish_times, f"sharded dynamic {what}")


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
) -> np.ndarray:
    """Sample dynamic COBRA cover times, one run at a time.

    ``sequence`` is either a shared :class:`GraphSequence` (every run
    replays the same topology realisation) or a factory
    ``topology_seed -> GraphSequence`` (every run draws an independent
    realisation).  Raises if any run hits the round cap.  For the
    hardware-speed shared-realisation variant see
    :func:`dynamic_cover_time_batch`.
    """
    times = np.empty(int(runs), dtype=np.int64)
    for i, (topo_seed, proc_seed) in enumerate(run_seed_pairs(seed, int(runs))):
        seq = _resolve_sequence(sequence, topo_seed, fresh=True)
        proc = CobraProcess(seq, branching, lazy=lazy)
        result = proc.run(
            start,
            np.random.default_rng(proc_seed),
            max_rounds=max_rounds,
            completion=completion,
        )
        if not result.covered:
            raise RuntimeError(
                f"dynamic COBRA run {i} on {seq.name} hit the round cap "
                f"({result.rounds_run} rounds)"
            )
        times[i] = result.cover_time
    return times


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
) -> np.ndarray:
    """Sample dynamic BIPS infection times, one run at a time (see above)."""
    times = np.empty(int(runs), dtype=np.int64)
    for i, (topo_seed, proc_seed) in enumerate(run_seed_pairs(seed, int(runs))):
        seq = _resolve_sequence(sequence, topo_seed, fresh=True)
        proc = BipsProcess(seq, source, branching, lazy=lazy)
        result = proc.run(
            np.random.default_rng(proc_seed),
            max_rounds=max_rounds,
            completion=completion,
        )
        if not result.infected_all:
            raise RuntimeError(
                f"dynamic BIPS run {i} on {seq.name} hit the round cap "
                f"({result.rounds_run} rounds)"
            )
        times[i] = result.infection_time
    return times


def dynamic_cover_time_batch(
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
    cache="auto",
) -> np.ndarray:
    """Sample dynamic COBRA cover times with the batched runner.

    By default all ``runs`` share one topology realisation (drawn from
    the topology half of :func:`batch_seed_pair`) and advance together
    in one ``(R, n)`` boolean program — the hardware-speed estimator
    for quenched (per-realisation) statistics.  Raises if any run hits
    the round cap.

    ``workers`` (any int >= 1) switches to sharded execution: the R
    axis splits into deterministic shards fanned out over worker
    processes, each shard realising its sequence locally from a
    spawned seed (see :func:`repro.parallel.run_sharded`).  Sharded
    samples are identical at every worker count but are a different —
    equally valid — stream than the default single-batch path.
    ``endpoint`` sends the same shards to a :mod:`repro.distributed`
    broker instead (``cache`` as in
    :func:`repro.parallel.execute_cached`); samples match the local
    sharded path bit-for-bit.
    """
    if workers is not None or endpoint is not None:
        return _sharded_dynamic_times(
            sequence,
            runs,
            CobraRule(make_policy(branching), lazy=lazy),
            int(start),
            seed,
            max_rounds=max_rounds,
            completion=completion,
            workers=None if workers is None else int(workers),
            endpoint=endpoint,
            cache=cache,
            what="COBRA",
        )
    topo_seed, proc_seed = batch_seed_pair(seed)
    seq = _resolve_sequence(sequence, topo_seed, fresh=True)
    proc = CobraProcess(seq, branching, lazy=lazy)
    res = proc.run_batch(
        np.full(int(runs), check_vertex(seq, start), dtype=np.int64),
        np.random.default_rng(proc_seed),
        max_rounds=max_rounds,
        completion=completion,
    )
    if not res.all_covered:
        raise RuntimeError(
            f"{(res.cover_times < 0).sum()} of {int(runs)} batched dynamic "
            f"COBRA runs on {seq.name} hit the round cap"
        )
    return res.cover_times.copy()


def dynamic_infection_time_batch(
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
    cache="auto",
) -> np.ndarray:
    """Sample dynamic BIPS infection times with the batched runner.

    The BIPS counterpart of :func:`dynamic_cover_time_batch`: one
    shared topology realisation, one ``(R, n)`` program — or, with
    ``workers`` / ``endpoint`` set, deterministic shards over worker
    processes or a broker's worker fleet with shard-local
    realisations (see :func:`dynamic_cover_time_batch`).
    """
    if workers is not None or endpoint is not None:
        return _sharded_dynamic_times(
            sequence,
            runs,
            BipsRule(make_policy(branching), int(source), lazy=lazy),
            int(source),
            seed,
            max_rounds=max_rounds,
            completion=completion,
            workers=None if workers is None else int(workers),
            endpoint=endpoint,
            cache=cache,
            what="BIPS",
        )
    topo_seed, proc_seed = batch_seed_pair(seed)
    seq = _resolve_sequence(sequence, topo_seed, fresh=True)
    proc = BipsProcess(seq, source, branching, lazy=lazy)
    res = proc.run_batch(
        int(runs),
        np.random.default_rng(proc_seed),
        max_rounds=max_rounds,
        completion=completion,
    )
    if not res.all_infected:
        raise RuntimeError(
            f"{(res.infection_times < 0).sum()} of {int(runs)} batched dynamic "
            f"BIPS runs on {seq.name} hit the round cap"
        )
    return res.infection_times.copy()
