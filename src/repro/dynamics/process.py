"""Dynamic COBRA / BIPS runners over a :class:`GraphSequence`.

The runners are thin wrappers over the unified batched engine
(:mod:`repro.engine`): a :class:`~repro.dynamics.sequence.GraphSequence`
is a topology source, so the static and dynamic step loops are the
same ``(R, n)`` boolean program — ``run`` is the ``R = 1`` case and
``run_batch`` advances ``R`` runs sharing one topology realisation
(the ROADMAP's "batched dynamic runner").

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
runner and sampler accepts a churn-aware ``completion`` criterion:
``"all-vertices"`` (default), ``"all-active"`` (every currently-present
vertex), or ``"target-hit"`` via the engine layer.
"""

from __future__ import annotations

import numpy as np

from ..core.branching import BranchingPolicy, make_policy
from ..core.state import BipsResult, CobraResult
from ..engine.engine import SpreadEngine
from ..engine.rules import BipsRule, CobraRule, select_targets
from ..graphs.graph import Graph
from ..stats.rng import spawn_seeds
from .sequence import GraphSequence

__all__ = [
    "DynamicCobraProcess",
    "DynamicBipsProcess",
    "dynamic_cover_time_samples",
    "dynamic_infection_time_samples",
    "dynamic_cover_time_batch",
    "dynamic_infection_time_batch",
    "run_seed_pairs",
    "batch_seed_pair",
]


def _check_start(sequence: GraphSequence, vertex: int) -> int:
    vertex = int(vertex)
    if not 0 <= vertex < sequence.n:
        raise ValueError(f"vertex {vertex} out of range [0, {sequence.n})")
    return vertex


class DynamicCobraProcess:
    """COBRA on a time-evolving graph.

    The round-``t`` active set makes its selections on snapshot
    ``sequence.graph_at(t)``, producing ``C_{t+1}``.  Parameters mirror
    :class:`~repro.core.cobra.CobraProcess` with the graph replaced by
    a :class:`~repro.dynamics.sequence.GraphSequence`.
    """

    def __init__(
        self,
        sequence: GraphSequence,
        branching: BranchingPolicy | int | float = 2,
        *,
        lazy: bool = False,
    ) -> None:
        self.sequence = sequence
        self.policy = make_policy(branching)
        self.lazy = lazy
        self.rule = CobraRule(self.policy, lazy=self.lazy)

    # ------------------------------------------------------------------
    def step_at(
        self, t: int, active: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Advance the active set one round on the round-``t`` snapshot.

        ``active`` is an array of vertex ids; duplicate ids act as
        separate particles (the :meth:`CobraProcess.step
        <repro.core.cobra.CobraProcess.step>` contract).  The result is
        the sorted unique next active set; isolated particles hold
        their position.
        """
        graph = self.sequence.graph_at(t)
        active = np.asarray(active, dtype=np.int64)
        stranded = graph.degrees[active] == 0
        movers = active[~stranded]
        if movers.size == 0:
            return active.copy()
        counts = self.policy.draw_counts(movers.shape[0], rng)
        actors = np.repeat(movers, counts)
        targets = np.unique(select_targets(graph, actors, rng, self.lazy))
        if not stranded.any():
            return targets
        return np.union1d(targets, active[stranded])

    # ------------------------------------------------------------------
    def run(
        self,
        start: int | np.ndarray,
        rng: np.random.Generator,
        *,
        max_rounds: int | None = None,
        record: bool = False,
        completion: str = "all-vertices",
        target: int | None = None,
    ) -> CobraResult:
        """Run until the completion criterion holds (or the cap).

        The default criterion requires all ``n`` vertices visited;
        ``completion="all-active"`` requires only the vertices present
        in the current snapshot (churn-aware cover).
        """
        n = self.sequence.n
        if np.ndim(start) == 0:
            active = np.array([_check_start(self.sequence, start)], dtype=np.int64)
        else:
            active = np.unique(np.asarray(list(start), dtype=np.int64))
            if active.size == 0 or active[0] < 0 or active[-1] >= n:
                raise ValueError(f"start set must be nonempty within [0, {n})")
        state = np.zeros((1, n), dtype=bool)
        state[0, active] = True

        engine = SpreadEngine(self.rule, self.sequence, completion, target=target)
        res = engine.run(
            state,
            rng,
            max_rounds=max_rounds,
            track_hits=True,
            record_sizes=record,
            record_visited=record,
        )
        covered = bool(res.finish_times[0] >= 0)
        return CobraResult(
            covered=covered,
            cover_time=int(res.finish_times[0]) if covered else -1,
            rounds_run=res.rounds_run,
            hit_times=res.hit_times[0].copy(),
            active_sizes=(
                res.sizes[0].copy() if record else np.empty(0, np.int64)
            ),
            visited_counts=(
                res.visited_counts[0].copy() if record else np.empty(0, np.int64)
            ),
        )

    # ------------------------------------------------------------------
    def run_batch(
        self,
        starts: np.ndarray,
        rng: np.random.Generator,
        *,
        max_rounds: int | None = None,
        track_hits: bool = False,
        completion: str = "all-vertices",
        target: int | None = None,
    ):
        """Advance ``R`` dynamic runs sharing one topology realisation.

        All runs see the same snapshot sequence but use independent
        process randomness inside one ``(R, n)`` boolean program — the
        batched counterpart of :meth:`run`.  Returns a
        :class:`~repro.core.state.CobraBatchResult`.
        """
        from ..core.state import CobraBatchResult

        n = self.sequence.n
        starts = np.asarray(starts, dtype=np.int64)
        if starts.ndim != 1 or starts.size == 0:
            raise ValueError("starts must be a 1-D nonempty array of vertices")
        if starts.min() < 0 or starts.max() >= n:
            raise ValueError(f"start vertex out of range [0, {n})")
        state = np.zeros((starts.shape[0], n), dtype=bool)
        state[np.arange(starts.shape[0]), starts] = True

        engine = SpreadEngine(self.rule, self.sequence, completion, target=target)
        res = engine.run(state, rng, max_rounds=max_rounds, track_hits=track_hits)
        return CobraBatchResult(
            cover_times=res.finish_times,
            rounds_run=res.rounds_run,
            hit_times=res.hit_times,
        )


class DynamicBipsProcess:
    """BIPS with a persistent source on a time-evolving graph.

    The round-``t`` infection step runs on ``sequence.graph_at(t)``.
    Snapshots with isolated vertices restrict the selection kernel to
    degree-positive vertices with otherwise identical semantics.
    """

    def __init__(
        self,
        sequence: GraphSequence,
        source: int,
        branching: BranchingPolicy | int | float = 2,
        *,
        lazy: bool = False,
    ) -> None:
        self.sequence = sequence
        self.source = _check_start(sequence, source)
        self.policy = make_policy(branching)
        self.lazy = lazy
        self.rule_single = BipsRule(
            self.policy, self.source, lazy=self.lazy, discipline="single"
        )
        self.rule_batch = BipsRule(
            self.policy, self.source, lazy=self.lazy, discipline="batch"
        )

    # ------------------------------------------------------------------
    def step_at(
        self, t: int, infected: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One infection round on the round-``t`` snapshot."""
        graph = self.sequence.graph_at(t)
        infected = np.asarray(infected, dtype=bool)
        if infected.shape != (graph.n,):
            raise ValueError(f"infected mask must have shape ({graph.n},)")
        return self.rule_single.step(
            graph, infected[None, :], np.ones(1, dtype=bool), rng
        )[0]

    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator,
        *,
        max_rounds: int | None = None,
        record_degrees: bool = False,
        completion: str = "all-vertices",
        target: int | None = None,
    ) -> BipsResult:
        """Run until the completion criterion holds (or the cap).

        ``completion="all-active"`` declares the run finished once
        every *currently-present* (degree-positive) vertex is infected
        — the reachable target under vertex churn.
        """
        n = self.sequence.n
        infected = np.zeros(n, dtype=bool)
        infected[self.source] = True

        degree_sizes = [] if record_degrees else None

        def observe(t: int, graph: Graph, state: np.ndarray) -> None:
            degree_sizes.append(int(graph.degrees[state[0]].sum()))

        engine = SpreadEngine(
            self.rule_single, self.sequence, completion, target=target
        )
        res = engine.run(
            infected[None, :],
            rng,
            max_rounds=max_rounds,
            record_sizes=True,
            on_round=observe if record_degrees else None,
        )
        final = res.final_state[0]
        if record_degrees:
            final_graph = self.sequence.graph_at(res.rounds_run)
            degree_sizes.append(int(final_graph.degrees[final].sum()))

        done = bool(res.finish_times[0] >= 0)
        return BipsResult(
            infected_all=done,
            infection_time=int(res.finish_times[0]) if done else -1,
            rounds_run=res.rounds_run,
            sizes=res.sizes[0].copy(),
            degree_sizes=np.asarray(
                degree_sizes if record_degrees else [], dtype=np.int64
            ),
            candidate_sizes=np.asarray([], dtype=np.int64),
            final_infected=final.copy(),
        )

    # ------------------------------------------------------------------
    def run_batch(
        self,
        runs: int,
        rng: np.random.Generator,
        *,
        max_rounds: int | None = None,
        record_sizes: bool = False,
        completion: str = "all-vertices",
        target: int | None = None,
    ):
        """Advance ``runs`` dynamic BIPS runs sharing one realisation.

        Returns a :class:`~repro.core.state.BipsBatchResult`; a
        finished run is frozen at its completion state.
        """
        from ..core.state import BipsBatchResult

        if runs < 1:
            raise ValueError("need at least one run")
        n = self.sequence.n
        infected = np.zeros((int(runs), n), dtype=bool)
        infected[:, self.source] = True

        engine = SpreadEngine(
            self.rule_batch, self.sequence, completion, target=target
        )
        res = engine.run(
            infected, rng, max_rounds=max_rounds, record_sizes=record_sizes
        )
        return BipsBatchResult(
            infection_times=res.finish_times,
            rounds_run=res.rounds_run,
            sizes=res.sizes,
        )


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
    n = _resolve_sequence(sequence, probe_topo).n
    start_column = int(start_column)
    if not 0 <= start_column < n:
        raise ValueError(f"vertex {start_column} out of range [0, {n})")

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
        proc = DynamicCobraProcess(seq, branching, lazy=lazy)
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
        proc = DynamicBipsProcess(seq, source, branching, lazy=lazy)
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
    proc = DynamicCobraProcess(seq, branching, lazy=lazy)
    res = proc.run_batch(
        np.full(int(runs), _check_start(seq, start), dtype=np.int64),
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
    proc = DynamicBipsProcess(seq, source, branching, lazy=lazy)
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
