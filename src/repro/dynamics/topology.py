"""Mutable topology state: edge rows, edge keys and an active mask.

:class:`MutableTopology` wraps *references* to the three pieces of
state a swap-driven sequence owns — the current edge rows, the
parallel-edge key set, and the active-vertex mask — so mutations made
through it are visible to the owner, and bundles the operations they
need:

* validated double-edge-swap replacement with an undo token (so a
  policy can retract a swap that disconnects the graph),
* connectivity / component / reachability queries on the
  **active-induced** subgraph (departed vertices keep their edge rows
  but do not count), including the exact local certificate that
  decides whether a swap kept a connected graph connected,
* frontier-degree counting against an observed mask,
* the round's snapshot :class:`~repro.graphs.Graph`.

The queries and the snapshot share one CSR, sorted once and patched by
the mutators: the oblivious rounds of :mod:`repro.dynamics.providers`
check each swap proposal's connectivity here, the adversary policies
of :mod:`repro.adversary` mutate the accepted proposal through it
(:mod:`repro.adversary.state` re-exports the class), and the sequence
wraps its CSR as the snapshot.

Everything here is exact integer bookkeeping — no randomness — so a
policy's effect is a pure function of (topology state, digest, the
draws it takes from the round generator).
"""

from __future__ import annotations

from array import array

import numpy as np

from ..graphs.graph import Graph, _ragged_arange

__all__ = ["MutableTopology"]


class MutableTopology:
    """In-place view of a swap-driven sequence's topology state.

    It owns the round's CSR of the active subgraph: sorted once by the
    first query, patched by the swaps and wrapped by :meth:`snapshot`.

    Parameters
    ----------
    n:
        Vertex count.
    edges:
        ``(m, 2)`` int64 edge rows — mutated in place.
    keys:
        Set of ``lo * n + hi`` edge keys mirroring ``edges`` — mutated
        in place.
    active:
        ``(n,)`` boolean active-vertex mask — mutated in place.
    """

    __slots__ = ("n", "edges", "keys", "active", "_adjacency", "_connected")

    def __init__(self, n: int, edges: np.ndarray, keys: set, active: np.ndarray) -> None:
        self.n = int(n)
        self.edges = edges
        self.keys = keys
        self.active = active
        # Known connectivity of the current state (None: unknown; the
        # first check finds out), kept exact by the mutators (a swap
        # makes it unknown, undo restores it).
        self._connected: bool | None = None
        # CSR (row starts, sorted neighbours) of the active subgraph as
        # int64 ``array("q")`` buffers (reaches() makes a Python int
        # only for an entry it reads; the numpy queries read
        # ``np.frombuffer`` views), plus the row width if every row has
        # one (else 0).  Built by the first query and kept in step by
        # the mutators below, like ``keys`` (so mutate only through them).
        self._adjacency: tuple[array, array, int] | None = None

    # -- keys -----------------------------------------------------------
    def edge_key(self, u: int, v: int) -> int:
        """The canonical ``lo * n + hi`` key of an undirected edge."""
        lo, hi = (u, v) if u <= v else (v, u)
        return int(lo) * self.n + int(hi)

    @staticmethod
    def edge_key_set(edges: np.ndarray, n: int) -> set:
        """The :meth:`edge_key` of every row of an ``(m, 2)`` edge array."""
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        return set((lo * np.int64(n) + hi).tolist())

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the (undirected) edge is currently present."""
        return self.edge_key(u, v) in self.keys

    # -- swaps ----------------------------------------------------------
    def replace_pair(self, i: int, j: int, e1, e2):
        """Replace edge rows ``i`` / ``j`` with ``e1`` / ``e2``.

        The proposal is rejected (returns None, state untouched) if it
        creates a self-loop or a parallel edge, or if it is the
        identity.  On success the rows and keys are updated and an
        opaque undo token is returned for :meth:`undo`.
        """
        if i == j:
            return None
        a1, b1 = (int(e1[0]), int(e1[1]))
        a2, b2 = (int(e2[0]), int(e2[1]))
        if a1 == b1 or a2 == b2:
            return None  # self-loop
        old_i = (int(self.edges[i, 0]), int(self.edges[i, 1]))
        old_j = (int(self.edges[j, 0]), int(self.edges[j, 1]))
        k1 = self.edge_key(a1, b1)
        k2 = self.edge_key(a2, b2)
        o1 = self.edge_key(*old_i)
        o2 = self.edge_key(*old_j)
        if {k1, k2} == {o1, o2}:
            return None  # identity proposal
        self.keys.discard(o1)
        self.keys.discard(o2)
        if k1 == k2 or k1 in self.keys or k2 in self.keys:
            self.keys.add(o1)
            self.keys.add(o2)
            return None  # parallel edge
        self.keys.add(k1)
        self.keys.add(k2)
        self.edges[i] = (min(a1, b1), max(a1, b1))
        self.edges[j] = (min(a2, b2), max(a2, b2))
        self._rewire_adjacency((old_i, old_j), ((a1, b1), (a2, b2)))
        token = (i, j, old_i, old_j, k1, k2, o1, o2, self._connected)
        self._connected = None
        return token

    def undo(self, token) -> None:
        """Retract a successful :meth:`replace_pair`."""
        i, j, old_i, old_j, k1, k2, o1, o2, connected = token
        self.keys.discard(k1)
        self.keys.discard(k2)
        self.keys.add(o1)
        self.keys.add(o2)
        self.edges[i] = old_i
        self.edges[j] = old_j
        self._rewire_adjacency(
            (divmod(k1, self.n), divmod(k2, self.n)), (old_i, old_j)
        )
        self._connected = connected

    def commit_edges(self, edges: np.ndarray, keys: set) -> None:
        """Adopt a whole proposed edge state (in place, same arrays)."""
        self.edges[:] = edges
        self.keys.clear()
        self.keys.update(keys)
        self._adjacency = None
        self._connected = None

    def _rewire_adjacency(self, removed, added) -> None:
        """Mirror an edge replacement in the CSR.

        A replacement among active vertices that keeps every degree (a
        double-edge swap) rewrites neighbour slots in place and re-sorts
        the rows it touched; any other drops the CSR, to be rebuilt on
        the next query.
        """
        if self._adjacency is None:
            return
        ends = [x for edge in removed for x in edge]
        active = self.active
        if sorted(ends) != sorted([x for edge in added for x in edge]) or not all(
            active[x] for x in ends
        ):
            self._adjacency = None
            return
        starts, nbrs, _ = self._adjacency
        free: dict[int, list[int]] = {}
        for x, y in removed:
            for p, q in ((x, y), (y, x)):
                slot = nbrs.index(q, starts[p], starts[p + 1])
                nbrs[slot] = -1
                free.setdefault(p, []).append(slot)
        for x, y in added:
            for p, q in ((x, y), (y, x)):
                nbrs[free[p].pop()] = q
        for p in free:
            lo, hi = starts[p], starts[p + 1]
            nbrs[lo:hi] = array("q", sorted(nbrs[lo:hi]))

    # -- activity -------------------------------------------------------
    def deactivate(self, vertices) -> None:
        """Churn vertices out (their edge rows stay, filtered at build)."""
        self.active[np.asarray(list(vertices), dtype=np.int64)] = False
        self._adjacency = None
        self._connected = None

    def reactivate(self, vertices) -> None:
        """Readmit churned-out vertices."""
        self.active[np.asarray(list(vertices), dtype=np.int64)] = True
        self._adjacency = None
        self._connected = None

    def _neighbours(self) -> tuple[array, array, int]:
        """The CSR, built from the live edges if absent: one sort of the
        doubled ``src * n + dst`` keys, as in :class:`Graph` but without
        its checks (the rows are unique, as their key set says)."""
        if self._adjacency is None:
            u, v = self._live_edges()
            n = np.int64(self.n)
            keys = np.concatenate([u * n + v, v * n + u])
            keys.sort()
            src = keys // n
            degrees = np.bincount(src, minlength=self.n)
            starts = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(degrees, out=starts[1:])
            width = int(degrees[0]) if degrees.min() == degrees.max() else 0
            self._adjacency = (
                array("q", starts.tobytes()),
                array("q", (keys - src * n).tobytes()),
                width,
            )
        return self._adjacency

    def _live_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint columns of edges with both endpoints active.

        With every vertex active these are views of the edge rows, so
        read them before the next mutation.
        """
        e = self.edges
        if self.active.all():
            return e[:, 0], e[:, 1]
        keep = self.active[e[:, 0]] & self.active[e[:, 1]]
        return e[keep, 0], e[keep, 1]

    # -- queries --------------------------------------------------------
    def component_of(self, start: int) -> np.ndarray:
        """Boolean mask of ``start``'s component in the active subgraph.

        A breadth-first search over the CSR, one gather of the frontier's
        rows per level (of the ``(n, d)`` view when every row has ``d``);
        the next frontier is the vertices the gather newly marked.
        """
        seen = np.zeros(self.n, dtype=bool)
        if not self.active[start]:
            return seen
        starts, nbrs, width = self._neighbours()
        indices = np.frombuffer(nbrs, dtype=np.int64)
        rows = indices.reshape(self.n, width) if width else None
        indptr = np.frombuffer(starts, dtype=np.int64)
        seen[start] = True
        frontier = np.array([start])
        while frontier.size:
            before = seen.copy()
            if rows is not None:
                seen[rows[frontier]] = True
            else:
                lo = indptr[frontier]
                counts = indptr[frontier + 1] - lo
                seen[indices[np.repeat(lo, counts) + _ragged_arange(counts)]] = True
            frontier = (seen > before).nonzero()[0]
        return seen

    def reaches(self, a: int, b: int) -> bool:
        """Does ``a`` reach ``b`` in the active subgraph?

        Two breadth-first searches, from ``a`` and from ``b``, walk the
        adjacency lists and stop as soon as they meet.  Each step grows
        the smaller frontier, so when the two vertices are apart the
        search ends once the smaller of their components is exhausted.
        """
        if not (self.active[a] and self.active[b]):
            return False
        if a == b:
            return True
        starts, nbrs, _ = self._neighbours()
        side = {a: 0, b: 1}
        get = side.get
        frontiers = [[a], [b]]
        while frontiers[0] and frontiers[1]:
            s = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
            grown = []
            push = grown.append
            for x in frontiers[s]:
                for y in nbrs[starts[x] : starts[x + 1]]:
                    t = get(y)
                    if t is None:
                        side[y] = s
                        push(y)
                    elif t != s:
                        return True
            frontiers[s] = grown
        return False

    def connected(self) -> bool:
        """Is the active-induced subgraph connected? (Vacuously True
        with at most one active vertex.)"""
        if self._connected is None:
            idx = np.nonzero(self.active)[0]
            self._connected = idx.size <= 1 or bool(
                self.component_of(int(idx[0]))[self.active].all()
            )
        return self._connected

    def swap_keeps_connected(self, token) -> bool:
        """Is the active subgraph connected after the swap ``token`` made?

        An exact local certificate replaces the full :meth:`connected`
        scan when the graph was known to be connected before a
        double-edge swap of live edges.  Deleting ``{a, b}`` and
        ``{c, d}`` from a connected graph leaves every vertex attached
        to one of ``a``, ``b``, ``c``, ``d``.  Each added edge joins one
        of ``a``, ``b`` to one of ``c``, ``d``, so at most two pieces
        remain, one holding ``a`` and one holding ``b``: the graph is
        connected iff ``a`` still reaches ``b``.  When connectivity
        before the swap is unknown, for a replacement that is not such
        a swap, or for one touching a departed vertex, the full scan
        decides.  Call it right after the :meth:`replace_pair` that
        returned ``token``.
        """
        _, _, (a, b), (c, d), k1, k2, _, _, was_connected = token
        active = self.active
        if was_connected and active[a] and active[b] and active[c] and active[d]:
            swaps = (
                {self.edge_key(a, c), self.edge_key(b, d)},
                {self.edge_key(a, d), self.edge_key(b, c)},
            )
            if {k1, k2} in swaps:
                self._connected = self.reaches(a, b)
        return self.connected()

    def active_degrees(self) -> np.ndarray:
        """Per-vertex degree in the active-induced subgraph."""
        deg = np.zeros(self.n, dtype=np.int64)
        u, v = self._live_edges()
        np.add.at(deg, u, 1)
        np.add.at(deg, v, 1)
        return deg

    def frontier_degrees(self, mask: np.ndarray) -> np.ndarray:
        """Per-vertex count of active neighbours inside ``mask``.

        The greedy-isolation score: a vertex with many neighbours in
        the observed frontier is the most valuable one to churn out.
        """
        deg = np.zeros(self.n, dtype=np.int64)
        u, v = self._live_edges()
        np.add.at(deg, u, mask[v].astype(np.int64))
        np.add.at(deg, v, mask[u].astype(np.int64))
        return deg

    def snapshot(self, name: str) -> Graph:
        """The active subgraph as a :class:`Graph` named ``name``: a copy
        of the CSR when one is held (the CSR ``Graph`` would build from
        the live edges), else a validated build from them."""
        if self._adjacency is None:
            return Graph(self.n, np.column_stack(self._live_edges()), name=name)
        starts, nbrs, _ = self._adjacency
        indptr = np.frombuffer(starts, dtype=np.int64)
        indices = np.frombuffer(nbrs, dtype=np.int64).copy()
        return Graph._from_csr(self.n, len(nbrs) // 2, indptr, indices, np.diff(indptr), name)
