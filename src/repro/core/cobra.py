"""The COBRA (COalescing-BRAnching) random walk engine.

Process definition (paper, Section 1): the set process ``(C_t)`` with
``C_0 = C`` and ``C_{t+1}`` generated by every vertex ``v ∈ C_t``
independently choosing ``b`` neighbours uniformly at random *with
replacement*; all chosen vertices form ``C_{t+1}``.  Coalescing is
implicit: a vertex chosen twice appears once.

``cover(u)`` is the first round ``T`` with ``∪_{t<=T} C_t = V`` when
``C_0 = {u}``; ``COVER(G) = max_u E[cover(u)]``.

Execution is delegated to the unified batched engine
(:mod:`repro.engine`): :class:`CobraProcess` is a thin wrapper binding
a :class:`~repro.engine.rules.CobraRule` to a static graph or a
time-evolving :class:`~repro.dynamics.GraphSequence`, and its ``run``
is the engine's ``R = 1`` case, drawn from the caller's Generator.
The samplers (:func:`cover_time_samples`, :func:`hit_time_samples`)
draw from the sharded stream instead
(:meth:`repro.engine.SpreadEngine.run_sharded`, one spawned seed per
shard), so their samples depend only on the seed, the run count and
the shard cap, never on how many processes ran them.
"""

from __future__ import annotations

import numpy as np

from ..engine.caps import process_round_cap
from ..engine.completion import CompletionCriterion, TargetHit
from ..engine.engine import SpreadEngine
from ..engine.rules import CobraRule
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, check_vertex_set, require_connected
from ..parallel.sharding import finished_times_or_raise
from ..stats.rng import generator_from
from .branching import BranchingPolicy, make_policy
from .state import CobraResult

__all__ = [
    "CobraProcess",
    "default_round_cap",
    "cover_time",
    "cover_time_samples",
    "hit_time_samples",
]


def default_round_cap(graph: Graph) -> int:
    """A generous round cap derived from the paper's Theorem 1.1 bound.

    ``64 · (m + dmax² ln n) + 1000`` — far above any measured cover time
    for ``b = 2`` (the theorem guarantees coverage w.h.p. within a
    constant multiple of ``m + dmax² log n``), so hitting the cap
    signals a bug or a genuinely pathological parameterisation rather
    than bad luck.  Delegates to
    :func:`repro.engine.caps.process_round_cap`, the cap shared by
    every per-vertex selection process in the repo.
    """
    return process_round_cap(graph.n, graph.m, graph.dmax)


class CobraProcess:
    """A COBRA process bound to a topology and a branching policy.

    Parameters
    ----------
    topology:
        A connected :class:`~repro.graphs.Graph`, or a
        :class:`~repro.dynamics.GraphSequence` whose round-``t`` active
        set makes its selections on ``sequence.graph_at(t)``.  Snapshots
        may be momentarily disconnected (coverage then happens across
        rounds), so only a static graph is checked for connectivity.
    branching:
        Branching spec: an int ``b``, a float ``1 + ρ`` in (1, 2), or a
        :class:`~repro.core.branching.BranchingPolicy`.
    lazy:
        If True, each individual neighbour selection instead returns the
        selecting vertex itself with probability 1/2 (the bipartite fix).

    ``run`` takes a ``completion`` criterion: a string
    (``"all-vertices"`` or ``"all-active"``) or a
    :class:`~repro.engine.completion.CompletionCriterion` such as
    ``TargetHit(v)``; the churn-aware ``"all-active"`` counts only the
    vertices present in the current snapshot.
    """

    def __init__(
        self,
        topology,
        branching: BranchingPolicy | int | float = 2,
        *,
        lazy: bool = False,
    ) -> None:
        if isinstance(topology, Graph):
            require_connected(topology)
        self.topology = topology
        self.policy = make_policy(branching)
        self.lazy = lazy
        self.rule = CobraRule(self.policy, lazy=self.lazy)

    # ------------------------------------------------------------------
    def run(
        self,
        start: int | np.ndarray,
        rng: np.random.Generator,
        *,
        max_rounds: int | None = None,
        record: bool = False,
        completion: str | CompletionCriterion = "all-vertices",
    ) -> CobraResult:
        """Run until the completion criterion holds (or ``max_rounds``).

        ``start`` may be a single vertex or an initial vertex set ``C``.
        ``record=True`` additionally stores ``|C_t|`` and the cumulative
        visited count per round.  Internally this is the batched engine
        at ``R = 1``.
        """
        topo = self.topology
        state = np.zeros((1, topo.n), dtype=bool)
        if np.ndim(start) == 0:
            state[0, check_vertex(topo, start)] = True
        else:
            state[0, check_vertex_set(topo, start)] = True

        res = SpreadEngine(self.rule, topo, completion).run(
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


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def cover_time(
    graph: Graph,
    start: int = 0,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    rng: np.random.Generator | int | None = None,
    max_rounds: int | None = None,
) -> int:
    """Sample ``cover(start)`` once.  Raises if the cap is hit."""
    gen = generator_from(rng)
    result = CobraProcess(graph, branching, lazy=lazy).run(
        start, gen, max_rounds=max_rounds
    )
    if not result.covered:
        raise RuntimeError(
            f"COBRA did not cover {graph.name} within {result.rounds_run} rounds"
        )
    return result.cover_time


def _start_state(topology, start: int, runs: int) -> np.ndarray:
    """``runs`` rows of one active particle at ``start`` (none if ``runs <= 0``).

    ``topology`` is a graph or a sequence: only its ``n`` is read.
    """
    state = np.zeros((max(int(runs), 0), topology.n), dtype=bool)
    state[:, check_vertex(topology, start)] = True
    return state


def cover_time_samples(
    graph: Graph,
    start: int = 0,
    runs: int = 32,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    rng: np.random.Generator | int | None = None,
    max_rounds: int | None = None,
    workers: int | None = None,
    endpoint: str | None = None,
) -> np.ndarray:
    """Sample ``cover(start)`` ``runs`` times on the sharded engine path.

    The runs are split into shards (:func:`repro.parallel.plan_shards`)
    with one seed each spawned from ``rng``
    (:meth:`repro.engine.SpreadEngine.run_sharded`).  ``workers=None``
    runs the shards one after another in this process; ``workers=k``
    fans them out over ``k`` processes against shared-memory CSR
    arrays, and ``endpoint`` (a :mod:`repro.distributed` broker's
    ``host:port``) sends them to a broker's worker fleet.  The samples
    are bit-identical on every tier.  Raises if a run hits the cap.
    """
    proc = CobraProcess(graph, branching, lazy=lazy)
    res = SpreadEngine(proc.rule, graph).run_sharded(
        _start_state(graph, start, runs),
        rng,
        workers=1 if workers is None else int(workers),
        max_rounds=max_rounds,
        endpoint=endpoint,
    )
    return finished_times_or_raise(res.finish_times, f"COBRA on {graph.name}")


def hit_time_samples(
    graph: Graph,
    start: int,
    target: int,
    runs: int = 32,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    rng: np.random.Generator | int | None = None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sample ``Hit_start(target)`` ``runs`` times (for duality checks).

    Drawn from the sharded stream as :func:`cover_time_samples` is, but
    each run stops at its hit: the engine runs to
    :class:`~repro.engine.completion.TargetHit` completion, so a run
    draws nothing after it reaches ``target``.  Raises if a run has not
    hit ``target`` by the cap.
    """
    proc = CobraProcess(graph, branching, lazy=lazy)
    target = check_vertex(graph, target)
    res = SpreadEngine(proc.rule, graph, TargetHit(target)).run_sharded(
        _start_state(graph, start, runs),
        rng,
        workers=1,
        max_rounds=max_rounds,
    )
    return finished_times_or_raise(res.finish_times, f"COBRA on {graph.name}")
