"""Structural graph properties used throughout the experiment suite.

Diameter (the paper's universal lower-bound ingredient), bipartiteness
(decides whether the lazy COBRA variant is needed), connected
components, and the one-line summary experiment tables print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "diameter",
    "eccentricity",
    "eccentricities",
    "is_bipartite",
    "connected_components",
    "GraphSummary",
    "summarize",
]


def eccentricity(graph: Graph, source: int) -> int:
    """Max BFS distance from ``source`` (graph must be connected)."""
    dist = graph.bfs_distances(source)
    mx = int(dist.max())
    if mx == np.iinfo(np.int64).max:
        raise ValueError("graph is disconnected; eccentricity undefined")
    return mx


def eccentricities(graph: Graph, starts) -> np.ndarray:
    """``[eccentricity(graph, s) for s in starts]`` in one multi-source BFS.

    Run ``r`` is bit ``r % 8`` of byte ``r // 8`` in each vertex's row,
    and the row is read as 64-bit words, so one word op advances 64
    runs and a round is one CSR gather plus one ``bitwise_or.reduceat``
    (which needs every row nonempty, so the graph is checked connected
    first, raising as :func:`eccentricity` does).
    """
    if not graph.is_connected():
        raise ValueError("graph is disconnected; eccentricity undefined")
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


def diameter(graph: Graph, *, exact_limit: int = 4096) -> int:
    """Graph diameter ``Diam(G)``.

    Exact (the largest of all :func:`eccentricities`) for
    ``n <= exact_limit``; beyond that uses the double-sweep heuristic
    twice, which is exact on trees and a lower bound in general
    (documented: experiments never exceed the exact regime).
    """
    if graph.n == 1:
        return 0
    if graph.n <= exact_limit:
        return int(eccentricities(graph, np.arange(graph.n)).max())
    # Double sweep: BFS from 0, then from the farthest vertex found.
    d0 = graph.bfs_distances(0)
    far = int(np.argmax(d0))
    d1 = graph.bfs_distances(far)
    far2 = int(np.argmax(d1))
    d2 = graph.bfs_distances(far2)
    return int(max(d1.max(), d2.max()))


def is_bipartite(graph: Graph) -> bool:
    """2-colourability test by BFS level parity (per component)."""
    color = np.full(graph.n, -1, dtype=np.int8)
    for start in range(graph.n):
        if color[start] != -1:
            continue
        color[start] = 0
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            nxt = []
            for u in frontier:
                cu = color[u]
                for v in graph.neighbors(u):
                    if color[v] == -1:
                        color[v] = 1 - cu
                        nxt.append(int(v))
                    elif color[v] == cu:
                        return False
            frontier = np.array(nxt, dtype=np.int64)
    return True


def connected_components(graph: Graph) -> list[np.ndarray]:
    """Connected components as arrays of vertex ids (sorted per component)."""
    unreached = np.iinfo(np.int64).max
    seen = np.zeros(graph.n, dtype=bool)
    comps: list[np.ndarray] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        dist = graph.bfs_distances(start)
        members = np.nonzero(dist != unreached)[0]
        seen[members] = True
        comps.append(members)
    return comps


@dataclass(frozen=True)
class GraphSummary:
    """One-line structural summary used in experiment tables."""

    name: str
    n: int
    m: int
    dmax: int
    dmin: int
    regular: bool
    bipartite: bool
    diameter: int

    def row(self) -> dict[str, object]:
        """Dictionary form for table rendering."""
        return {
            "graph": self.name,
            "n": self.n,
            "m": self.m,
            "dmax": self.dmax,
            "regular": self.regular,
            "diam": self.diameter,
        }


def summarize(graph: Graph) -> GraphSummary:
    """Build the :class:`GraphSummary` of a connected graph."""
    return GraphSummary(
        name=graph.name,
        n=graph.n,
        m=graph.m,
        dmax=graph.dmax,
        dmin=graph.dmin,
        regular=graph.is_regular(),
        bipartite=is_bipartite(graph),
        diameter=diameter(graph),
    )
