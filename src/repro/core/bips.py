"""The BIPS (Biased Infection with Persistent Source) engine.

Process definition (paper, Section 1): ``A_0 = {v}`` and
``A_{t+1} = Infect(A_t) ∪ {v}``, where in ``Infect(S)`` every vertex
``u`` independently selects ``b`` random neighbours with replacement
and joins the next infected set iff at least one selected neighbour is
in ``S``.  The source ``v`` is persistently infected; all other
vertices refresh their status every round (SIS dynamics).

BIPS is the time-reversed dual of COBRA (Theorem 1.3); the paper's new
cover-time bounds are proven by bounding the BIPS infection time
(Theorems 1.4 and 1.5).  This module therefore exposes everything the
proofs track: ``|A_t|``, the degree ``d(A_t)`` of Section 3, and the
candidate sets ``C_t`` of eq. (6) used by Corollaries 5.2/5.3.

Execution is delegated to the unified batched engine
(:mod:`repro.engine`): :class:`BipsProcess` binds one
:class:`~repro.engine.rules.BipsRule` to a static graph or a
time-evolving :class:`~repro.dynamics.GraphSequence`; ``run`` is its
``R = 1`` case, drawn from the caller's Generator.
:func:`infection_time_samples` draws ``R`` runs from the sharded
stream instead, exactly as :func:`repro.core.cobra.cover_time_samples`
does.
"""

from __future__ import annotations

import numpy as np

from ..engine.completion import CompletionCriterion
from ..engine.engine import SpreadEngine
from ..engine.rules import BipsRule
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, require_connected
from ..parallel.sharding import finished_times_or_raise
from ..stats.rng import generator_from
from .branching import BranchingPolicy, make_policy
from .cobra import _start_state
from .state import BipsResult

__all__ = [
    "BipsProcess",
    "infection_time",
    "infection_time_samples",
    "candidate_set",
    "fixed_set",
]


def _neighbor_counts_and_fixed(
    graph: Graph, infected: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex infected-neighbour counts and the ``B_fix`` mask.

    Counting by prefix sums over the CSR rows gives 0 for a degree-0
    row.  A degree-0 vertex of a dynamic snapshot makes no selection and
    is never infected, so it is not in ``B_fix``.
    """
    cum = np.concatenate(([0], np.cumsum(infected[graph.indices], dtype=np.int64)))
    counts = cum[graph.indptr[1:]] - cum[graph.indptr[:-1]]
    return counts, (counts == graph.degrees) & (graph.degrees > 0)


def fixed_set(graph: Graph, infected: np.ndarray) -> np.ndarray:
    """``B_fix = {u : N(u) ⊆ A}`` — the deterministic part of the next set.

    ``infected`` is a boolean mask of ``A``.  Returns a boolean mask.
    (Paper, Section 3: these vertices will be infected regardless of
    their random selections, because every selection lands in ``A``.)
    Degree-0 vertices are left out: they are never infected.
    """
    return _neighbor_counts_and_fixed(graph, infected)[1]


def candidate_set(graph: Graph, infected: np.ndarray, source: int) -> np.ndarray:
    """``C = (N(A) ∪ {v}) \\ B_fix`` — the candidates of eq. (6).

    These are exactly the vertices whose next-round status is random;
    Corollary 5.2 lower-bounds ``|C_t|`` by ``|A_{t-1}|(1-λ)/2`` for
    regular graphs with ``|A_{t-1}| <= n/2``.
    """
    counts, bfix = _neighbor_counts_and_fixed(graph, infected)
    in_neighborhood = counts > 0
    in_neighborhood[source] = True
    return in_neighborhood & ~bfix


class BipsProcess:
    """A BIPS process bound to a topology, source vertex and branching policy.

    Parameters mirror :class:`~repro.core.cobra.CobraProcess` (a
    connected graph or a :class:`~repro.dynamics.GraphSequence`, with
    the same ``completion`` criteria); the extra ``source`` is the
    persistent source ``v``.  On a snapshot with isolated vertices the
    selections are restricted to degree-positive vertices, so an
    isolated vertex other than the source is never infected.
    """

    def __init__(
        self,
        topology,
        source: int,
        branching: BranchingPolicy | int | float = 2,
        *,
        lazy: bool = False,
    ) -> None:
        if isinstance(topology, Graph):
            require_connected(topology)
        self.topology = topology
        self.source = check_vertex(topology, source)
        self.policy = make_policy(branching)
        self.lazy = lazy
        self.rule = BipsRule(self.policy, self.source, lazy=self.lazy)

    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator,
        *,
        max_rounds: int | None = None,
        record_degrees: bool = False,
        record_candidates: bool = False,
        initial: np.ndarray | None = None,
        completion: str | CompletionCriterion = "all-vertices",
    ) -> BipsResult:
        """Run until the completion criterion holds (or the cap).

        ``initial`` optionally overrides ``A_0`` (must contain the
        source); the proofs' restart/monotonicity arguments use this.
        ``completion="all-active"`` declares the run finished once
        every *currently-present* (degree-positive) vertex is infected
        — the reachable target under vertex churn.  Internally the
        batched engine at ``R = 1``.
        """
        n = self.topology.n
        if initial is None:
            infected = np.zeros(n, dtype=bool)
            infected[self.source] = True
        else:
            infected = np.array(initial, dtype=bool)
            if infected.shape != (n,) or not infected[self.source]:
                raise ValueError("initial set must be a mask containing the source")

        degree_sizes: list[int] = []
        candidate_sizes: list[int] = []

        def observe(t: int, graph: Graph, state: np.ndarray) -> None:
            if record_degrees:
                degree_sizes.append(int(graph.degrees[state[0]].sum()))
            if record_candidates:
                candidate_sizes.append(
                    int(candidate_set(graph, state[0], self.source).sum())
                )

        engine = SpreadEngine(self.rule, self.topology, completion)
        res = engine.run(
            infected[None, :],
            rng,
            max_rounds=max_rounds,
            record_sizes=True,
            on_round=observe if (record_degrees or record_candidates) else None,
        )
        final = res.final_state[0]
        if record_degrees:
            final_graph = engine.topology.graph_at(res.rounds_run)
            degree_sizes.append(int(final_graph.degrees[final].sum()))

        done = bool(res.finish_times[0] >= 0)
        return BipsResult(
            infected_all=done,
            infection_time=int(res.finish_times[0]) if done else -1,
            rounds_run=res.rounds_run,
            sizes=res.sizes[0].copy(),
            degree_sizes=np.asarray(degree_sizes, dtype=np.int64),
            candidate_sizes=np.asarray(candidate_sizes, dtype=np.int64),
            final_infected=final.copy(),
        )


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def infection_time(
    graph: Graph,
    source: int = 0,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    rng: np.random.Generator | int | None = None,
    max_rounds: int | None = None,
) -> int:
    """Sample ``infec(source)`` once.  Raises if the cap is hit."""
    gen = generator_from(rng)
    res = BipsProcess(graph, source, branching, lazy=lazy).run(
        gen, max_rounds=max_rounds
    )
    if not res.infected_all:
        raise RuntimeError(
            f"BIPS did not infect {graph.name} within {res.rounds_run} rounds"
        )
    return res.infection_time


def infection_time_samples(
    graph: Graph,
    source: int = 0,
    runs: int = 32,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    rng: np.random.Generator | int | None = None,
    max_rounds: int | None = None,
    workers: int | None = None,
    endpoint: str | None = None,
) -> np.ndarray:
    """Sample ``infec(source)`` ``runs`` times on the sharded engine path.

    ``workers`` and ``endpoint`` choose the tier exactly as in
    :func:`repro.core.cobra.cover_time_samples`; the samples depend
    only on ``rng``, ``runs`` and the shard plan.  Raises if a run hits
    the cap.
    """
    proc = BipsProcess(graph, source, branching, lazy=lazy)
    res = SpreadEngine(proc.rule, graph).run_sharded(
        _start_state(graph, proc.source, runs),
        rng,
        workers=1 if workers is None else int(workers),
        max_rounds=max_rounds,
        endpoint=endpoint,
    )
    return finished_times_or_raise(res.finish_times, f"BIPS on {graph.name}")
