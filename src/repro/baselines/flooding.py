"""Deterministic flooding — the information-propagation speed limit.

Every informed vertex transmits to *all* neighbours each round, so the
informed set after ``t`` rounds is exactly the BFS ball of radius ``t``
and broadcast completes in ``ecc(start)`` rounds (``<= Diam(G)``).
Flooding spends ``d(u)`` transmissions per vertex per round — the
budget COBRA caps at ``b`` — and realises the ``Diam(G)`` part of the
paper's universal lower bound ``max{log₂ n, Diam(G)}``.

Flooding draws no randomness, so it is a BFS, not an engine rule:
:func:`flooding_broadcast_time` and :func:`flooding_frontier_sizes`
read :meth:`repro.graphs.Graph.bfs_distances`, and
:func:`flooding_broadcast_times` advances the BFS balls of many starts
together, packed eight runs per byte and 64 per word.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..graphs.properties import eccentricity
from ..graphs.validation import check_vertex, require_connected

__all__ = [
    "flooding_broadcast_time",
    "flooding_broadcast_times",
    "flooding_frontier_sizes",
]


def flooding_broadcast_time(graph: Graph, start: int = 0) -> int:
    """Rounds for flooding to inform everyone — equals ``ecc(start)``."""
    require_connected(graph)
    return eccentricity(graph, check_vertex(graph, start))


def flooding_broadcast_times(graph: Graph, starts) -> np.ndarray:
    """Flooding broadcast times (eccentricities) for many start vertices.

    Run ``r`` is bit ``r % 8`` of byte ``r // 8`` in each vertex's row,
    and the row is read as 64-bit words, so one word op advances 64
    runs and a round is one CSR gather plus one ``bitwise_or.reduceat``.
    The result is ``[ecc(s) for s in starts]``.
    """
    require_connected(graph)
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1 or starts.size == 0:
        raise ValueError("starts must be a 1-D nonempty array of vertices")
    if starts.min() < 0 or starts.max() >= graph.n:
        raise ValueError(f"start vertex out of range [0, {graph.n})")
    runs = starts.shape[0]
    mask = np.zeros((graph.n, -(-runs // 64) * 64), dtype=bool)
    mask[starts, np.arange(runs)] = True
    packed = np.packbits(mask, axis=1, bitorder="little")
    informed = frontier = packed.view(np.uint64)
    times = np.zeros(runs, dtype=np.int64)
    while True:
        covered = np.bitwise_and.reduce(informed, axis=0).view(np.uint8)
        pending = np.unpackbits(~covered, count=runs, bitorder="little")
        if not pending.any():
            return times
        times += pending
        # Only last round's frontier can reach an uninformed vertex.
        reached = np.bitwise_or.reduceat(
            frontier[graph.indices], graph.indptr[:-1], axis=0
        )
        frontier = reached & ~informed
        informed = informed | frontier


def flooding_frontier_sizes(graph: Graph, start: int = 0) -> np.ndarray:
    """``|informed after t rounds|`` for ``t = 0 .. ecc(start)``.

    The deterministic trajectory COBRA's ``|⋃ C_t|`` curve is bounded
    above by (COBRA can never beat flooding pointwise).
    """
    require_connected(graph)
    start = check_vertex(graph, start)
    return np.cumsum(np.bincount(graph.bfs_distances(start)))
