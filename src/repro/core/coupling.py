"""The duality proof's coupling, made executable (Theorem 1.3's engine).

The paper proves Theorem 1.3 by a time-reversal coupling: fix the
neighbour selections

    ``ω(u, t) ⊆ N(u)``  for every vertex ``u`` and round ``1 ≤ t ≤ T``,

run COBRA *forward* with them (a vertex active in round ``t − 1`` sends
along every selection in ``ω(u, t)``), and run BIPS with the *same*
selections in reverse time order (round ``s`` of BIPS uses
``ω(·, T + 1 − s)``).  Then — deterministically, for every fixed
selection table —

    vertex ``v`` is visited by COBRA within ``T`` rounds
        ⟺  ``C ∩ A_T ≠ ∅`` in BIPS,

and because the table is exchanged between the two processes with equal
probability, the distributional identity of Theorem 1.3 follows.

This module implements the selection table and both deterministic
replays, so the equivalence can be checked sample-by-sample (it is a
hypothesis property test in this repository) — a much stronger
verification than comparing Monte-Carlo estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, check_vertex_set, require_connected
from .branching import BranchingPolicy, make_policy

__all__ = [
    "SelectionTable",
    "cobra_replay",
    "bips_replay",
    "coupling_equivalence_holds",
]


@dataclass(frozen=True)
class SelectionTable:
    """Fixed neighbour selections ``ω(u, t)`` for all vertices and rounds.

    ``selections[t - 1][u]`` is the tuple of vertices chosen by ``u``
    for round ``t`` (length = that vertex's selection count; with
    replacement, so duplicates are allowed).
    """

    graph: Graph
    selections: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def horizon(self) -> int:
        """The number of prepared rounds ``T``."""
        return len(self.selections)

    @classmethod
    def sample(
        cls,
        graph: Graph,
        horizon: int,
        rng: np.random.Generator,
        *,
        branching: BranchingPolicy | int | float = 2,
        lazy: bool = False,
    ) -> "SelectionTable":
        """Draw a table the way both processes would draw it.

        Crucially the per-(u, t) selection law is the same for COBRA
        and BIPS, which is what makes the table exchangeable between
        the two time directions.
        """
        require_connected(graph)
        policy = make_policy(branching)
        rounds = []
        for _ in range(horizon):
            per_vertex = []
            counts = policy.draw_counts(graph.n, rng)
            for u in range(graph.n):
                picks = graph.sample_neighbors(
                    np.full(int(counts[u]), u, dtype=np.int64), rng
                )
                if lazy:
                    stay = rng.random(picks.shape[0]) < 0.5
                    picks = np.where(stay, u, picks)
                per_vertex.append(tuple(int(p) for p in picks))
            rounds.append(tuple(per_vertex))
        return cls(graph=graph, selections=tuple(rounds))


def cobra_replay(table: SelectionTable, start_set) -> np.ndarray:
    """Run COBRA deterministically on the table; return per-vertex visit flags.

    A vertex active at round ``t − 1`` sends along exactly its
    ``ω(u, t)`` selections.  Returns a boolean mask of vertices visited
    within the table's horizon (the start set counts as visited).
    """
    g = table.graph
    start = check_vertex_set(g, start_set)
    active = np.zeros(g.n, dtype=bool)
    active[start] = True
    visited = active.copy()
    for t in range(table.horizon):
        nxt = np.zeros(g.n, dtype=bool)
        row = table.selections[t]
        for u in np.nonzero(active)[0]:
            for w in row[int(u)]:
                nxt[w] = True
        active = nxt
        visited |= active
    return visited


def bips_replay(table: SelectionTable, source: int) -> np.ndarray:
    """Run BIPS deterministically on the *time-reversed* table.

    Round ``s`` of BIPS (``s = 1..T``) uses the selections
    ``ω(·, T + 1 − s)``: a vertex is infected next round iff one of its
    selections is currently infected.  Returns the mask of ``A_T``.
    """
    g = table.graph
    source = check_vertex(g, source)
    infected = np.zeros(g.n, dtype=bool)
    infected[source] = True
    horizon = table.horizon
    for s in range(1, horizon + 1):
        row = table.selections[horizon - s]
        nxt = np.zeros(g.n, dtype=bool)
        for u in range(g.n):
            for w in row[u]:
                if infected[w]:
                    nxt[u] = True
                    break
        nxt[source] = True
        infected = nxt
    return infected


def coupling_equivalence_holds(
    table: SelectionTable, start_set, source: int
) -> bool:
    """Check the proof's deterministic claim for one selection table.

    ``v`` visited by COBRA (from ``C``) within ``T``  ⟺
    ``C ∩ A_T ≠ ∅`` for BIPS from ``{v}`` on the reversed table.
    """
    g = table.graph
    source = check_vertex(g, source)
    start = check_vertex_set(g, start_set)
    visited = cobra_replay(table, start)
    infected = bips_replay(table, source)
    lhs = bool(visited[source])
    rhs = bool(infected[start].any())
    return lhs == rhs
