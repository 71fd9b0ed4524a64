"""Compressed-sparse-row (CSR) graph substrate.

The simulators in :mod:`repro.core` spend essentially all of their time
drawing uniformly random neighbours for batches of vertices.  A CSR
adjacency layout makes that a three-instruction vectorised program::

    offsets = indptr[vertices] + floor(uniform * degrees[vertices])
    chosen  = indices[offsets]

so the whole library is built on this small immutable :class:`Graph`
class rather than on ``networkx`` objects (conversion helpers are
provided for interoperability).

All graphs are finite, simple (no self-loops, no parallel edges) and
undirected; every edge ``{u, v}`` is stored twice, once in each
direction.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["Graph", "SharedGraph"]


def _attach_untracked(name: str):
    """Attach to an existing shared-memory segment without re-tracking it.

    Python 3.13 grew ``track=False`` for attach-only use.  On older
    versions attaching re-registers the name with the resource tracker;
    within one process tree (our pool workers share the parent's
    tracker) that registration is an idempotent set-add, and the
    creator's ``unlink()`` removes it exactly once — so no
    counter-measure is needed, and explicitly unregistering here would
    *delete the creator's registration* out from under it.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        return shared_memory.SharedMemory(name=name)


class SharedGraph:
    """A picklable handle to a graph's CSR arrays in shared memory.

    Created by :meth:`Graph.to_shared`, consumed by
    :meth:`Graph.from_shared`.  The handle itself carries only the
    segment name and the array geometry, so shipping it to a worker
    process costs a few hundred bytes regardless of graph size; the
    worker then maps the one existing copy of ``indptr`` / ``indices``
    / ``degrees`` instead of re-pickling the topology per task.

    Lifecycle (the POSIX shared-memory contract):

    * every process that attached must :meth:`close` when done (worker
      side; dropping the graph alone leaks the mapping until process
      exit, which pool workers deliberately rely on);
    * exactly one process — the creator — must additionally
      :meth:`unlink` once all users are done, or the segment outlives
      the program.  Using the handle as a context manager does both.
    """

    __slots__ = ("shm_name", "n", "m", "graph_name", "_shm", "_owner", "_unlinked")

    def __init__(
        self, shm_name: str, n: int, m: int, graph_name: str
    ) -> None:
        self.shm_name = shm_name
        self.n = int(n)
        self.m = int(m)
        self.graph_name = graph_name
        self._shm = None
        self._owner = False
        self._unlinked = False

    # -- pickling: ship only the name + geometry ------------------------
    def __getstate__(self):
        return (self.shm_name, self.n, self.m, self.graph_name)

    def __setstate__(self, state) -> None:
        self.shm_name, self.n, self.m, self.graph_name = state
        self._shm = None
        self._owner = False
        self._unlinked = False

    # -- attachment -----------------------------------------------------
    def _segment(self):
        """The underlying ``SharedMemory``, attaching on first use."""
        if self._shm is None:
            self._shm = _attach_untracked(self.shm_name)
        return self._shm

    def attach(self) -> "Graph":
        """Map the segment and return the zero-copy :class:`Graph`."""
        return Graph.from_shared(self)

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Release this process's handle on the segment (idempotent).

        If no zero-copy :class:`Graph` from this process still views
        the mapping, the mapping is unmapped outright.  Otherwise the
        mapping must outlive those views, so only the file descriptor
        is closed: the attached graphs stay valid, and the memory is
        returned when the last of them is garbage collected.
        """
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        try:
            shm.close()
        except BufferError:
            # Live views exported from the mapping: keep it alive for
            # them, drop only the descriptor, and disarm the
            # SharedMemory finalizer (a second close at GC time would
            # raise the same BufferError as ignored-exception noise).
            # The surgery touches CPython-private fields, so degrade to
            # leak-until-process-exit if a future release reshapes them.
            try:
                shm._buf = None
                shm._mmap = None
                if shm._fd >= 0:
                    import os

                    os.close(shm._fd)
                    shm._fd = -1
            except (AttributeError, OSError):  # pragma: no cover
                pass

    def unlink(self) -> None:
        """Destroy the segment (creator-side; idempotent).

        Prefer unlinking *before* :meth:`close`: that goes through the
        original tracked ``SharedMemory``, which also drops the
        creator's resource-tracker registration on every Python
        version.  After a ``close()`` the segment is destroyed through
        an untracked re-attach, and the stale registration is removed
        best-effort (Python 3.13's ``track=False`` unlink skips the
        unregister that older versions do unconditionally).

        A second ``unlink()`` — or one racing another process that
        already destroyed the segment — is a silent no-op, as is a
        ``close()`` afterwards, so teardown code never needs to track
        which of the two ran first.
        """
        if self._unlinked:
            return
        shm = self._shm
        try:
            if shm is not None:
                shm.unlink()
                self._unlinked = True
                return
            shm = _attach_untracked(self.shm_name)
        except FileNotFoundError:
            self._unlinked = True
            return
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        finally:
            shm.close()
        self._unlinked = True
        if self._owner and getattr(shm, "_track", None) is False:
            # 3.13+ untracked attach: unlink() skipped the unregister
            # that pre-3.13 (tracked) attaches perform, so drop the
            # creator's registration explicitly.
            try:  # pragma: no cover - exercised on Python >= 3.13 only
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass

    def __enter__(self) -> "SharedGraph":
        """Context manager: yields the handle itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Close, and unlink if this process created the segment."""
        try:
            if self._owner:
                self.unlink()
        finally:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedGraph(shm_name={self.shm_name!r}, "
            f"graph={self.graph_name!r}, n={self.n}, m={self.m})"
        )


class Graph:
    """An immutable undirected simple graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are the integers ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``.  Duplicates (in
        either orientation) are collapsed; self-loops raise
        :class:`ValueError`.
    name:
        Optional human-readable label used in reports and tables.

    Attributes
    ----------
    n : int
        Vertex count.
    m : int
        Undirected edge count (each edge counted once).
    indptr : numpy.ndarray
        CSR row pointer of shape ``(n + 1,)``; the neighbours of vertex
        ``u`` are ``indices[indptr[u]:indptr[u + 1]]``, sorted
        ascending.
    indices : numpy.ndarray
        CSR column indices of shape ``(2 * m,)``.
    degrees : numpy.ndarray
        Per-vertex degree, ``degrees[u] == indptr[u + 1] - indptr[u]``.
    """

    __slots__ = ("n", "m", "indptr", "indices", "degrees", "name", "_dmin", "_dmax")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]],
        *,
        name: str = "graph",
    ) -> None:
        if n <= 0:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_arr = np.asarray(edges, dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError("edges must be an iterable of (u, v) pairs")
        if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n):
            raise ValueError("edge endpoint out of range [0, n)")
        u, v = edge_arr[:, 0], edge_arr[:, 1]
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")

        # One sort of the doubled ``src * n + dst`` keys orders the CSR
        # row by row with ascending neighbours; an edge listed several
        # times (in either orientation) leaves equal adjacent keys.
        n64 = np.int64(n)
        keys = np.concatenate([u * n64 + v, v * n64 + u])
        keys.sort()
        repeat = keys[1:] == keys[:-1]
        if repeat.any():
            keys = np.concatenate([keys[:1], keys[1:][~repeat]])
        src = keys // n64
        indices = keys - src * n64
        m = int(keys.shape[0]) // 2
        degrees = np.bincount(src, minlength=n).astype(np.int64, copy=False)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        self.n: int = int(n)
        self.m: int = m
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        self.name = name
        self._freeze()

    def _freeze(self) -> None:
        """Make the CSR read-only and read the degree bounds once."""
        for arr in (self.indptr, self.indices, self.degrees):
            arr.setflags(write=False)
        self._dmin = int(self.degrees.min()) if self.n else 0
        self._dmax = int(self.degrees.max()) if self.n else 0

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> np.ndarray:
        """Return the (read-only, sorted) neighbour array of vertex ``u``."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Return the degree of vertex ``u``."""
        return int(self.degrees[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Return True iff ``{u, v}`` is an edge."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.shape[0] and int(nbrs[i]) == v

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges once each, as ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """Return an ``(m, 2)`` array of edges with ``u < v`` per row."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    @property
    def dmax(self) -> int:
        """Maximum vertex degree (``d_max`` in the paper)."""
        return self._dmax

    @property
    def dmin(self) -> int:
        """Minimum vertex degree."""
        return self._dmin

    def total_degree(self) -> int:
        """Return ``d(V) = 2m``, the degree of the full vertex set."""
        return 2 * self.m

    def set_degree(self, vertices: Sequence[int] | np.ndarray) -> int:
        """Return ``d(S) = sum of degrees over S`` (paper, Section 3)."""
        idx = np.asarray(vertices, dtype=np.int64)
        return int(self.degrees[idx].sum())

    def is_regular(self) -> bool:
        """Return True iff all vertices have equal degree."""
        return self.n > 0 and self.dmax == self.dmin

    # ------------------------------------------------------------------
    # Random sampling (the simulator hot path)
    # ------------------------------------------------------------------
    def sample_neighbors(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one uniform random neighbour for each vertex in ``vertices``.

        Fully vectorised: cost is O(len(vertices)) with no Python-level
        loop.  Vertices may repeat; draws are independent.  A
        ``d``-regular graph has ``indptr[v] == v·d``, so its offsets are
        ``v·d + ⌊u·d⌋`` with no gather: the same draws and neighbours.

        Raises
        ------
        ValueError
            If any requested vertex is isolated (degree zero); raised
            before any draw, so the generator does not advance.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.shape[0]
        regular = self._dmin == self._dmax
        degs = self._dmax if regular else self.degrees[vertices]
        if k and self._dmin == 0 and int(np.min(degs)) == 0:
            raise ValueError("cannot sample a neighbour of an isolated vertex")
        # floor(u * d) is uniform on {0, .., d-1} for u ~ U[0, 1).
        # Draws land in reusable scratch: ``Generator.random(out=...)``
        # fills from the same stream as ``random(k)``, and the int64
        # cast-assign truncates exactly like ``astype`` — bit-identical
        # to the allocating form (pinned in tests/graphs), minus two
        # heap allocations per round.
        u = _SCRATCH.floats(k)
        rng.random(out=u)
        np.multiply(u, degs, out=u)
        offsets = _SCRATCH.ints(k)
        offsets[:] = u
        starts = vertices * self._dmax if regular else self.indptr[vertices]
        np.add(starts, offsets, out=offsets)
        return self.indices[offsets]

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def adjacency_matrix(self):
        """Return the adjacency matrix as a ``scipy.sparse.csr_matrix``."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.indices.shape[0], dtype=np.float64)
        return csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=(self.n, self.n)
        )

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for interop/validation)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g, *, name: str | None = None) -> "Graph":
        """Build a :class:`Graph` from a networkx graph.

        Node labels are relabelled to ``0 .. n-1`` in sorted order (or
        insertion order if labels are not sortable).
        """
        nodes = list(g.nodes())
        try:
            nodes = sorted(nodes)
        except TypeError:
            pass
        index = {v: i for i, v in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in g.edges() if u != v]
        return cls(len(nodes), edges, name=name or getattr(g, "name", "") or "graph")

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]], *, name: str = "graph") -> "Graph":
        """Build a graph whose vertex count is ``1 + max endpoint``."""
        edge_list = list(edges)
        if not edge_list:
            raise ValueError("from_edges requires at least one edge")
        n = 1 + max(max(u, v) for u, v in edge_list)
        return cls(n, edge_list, name=name)

    # ------------------------------------------------------------------
    # Structure queries used across the library
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Return True iff the graph is connected (BFS from vertex 0)."""
        return bool(self.bfs_distances(0).max(initial=0) < np.iinfo(np.int64).max)

    def bfs_distances(self, source: int) -> np.ndarray:
        """Return BFS hop distances from ``source``.

        Unreachable vertices get ``np.iinfo(int64).max``.  Implemented as
        a frontier-at-a-time vectorised BFS (one fancy-index per level).
        """
        unreachable = np.iinfo(np.int64).max
        dist = np.full(self.n, unreachable, dtype=np.int64)
        dist[source] = 0
        # slot[v] ends up naming one position of v in a level's candidate
        # list, so exactly one copy of each newly reached vertex is kept.
        slot = np.empty(self.n, dtype=np.int64)
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            # All out-neighbours of the frontier, then keep the unseen.
            starts = self.indptr[frontier]
            counts = self.degrees[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            flat = np.repeat(starts, counts) + _ragged_arange(counts)
            nxt = self.indices[flat]
            nxt = nxt[dist[nxt] == unreachable]
            if nxt.size == 0:
                break
            pos = np.arange(nxt.size)
            slot[nxt] = pos
            nxt = nxt[slot[nxt] == pos]
            dist[nxt] = level
            frontier = nxt
        return dist

    # ------------------------------------------------------------------
    # Shared memory (zero-copy export to worker processes)
    # ------------------------------------------------------------------
    def to_shared(self) -> "SharedGraph":
        """Export the CSR arrays into one shared-memory segment.

        Returns a picklable :class:`SharedGraph` handle; workers call
        :meth:`Graph.from_shared` (or ``handle.attach()``) to map the
        same physical arrays instead of receiving a pickled copy per
        task.  Layout: ``[indptr | indices | degrees]`` as one int64
        block.  The caller owns the segment and must ``close()`` +
        ``unlink()`` it (or use the handle as a context manager).
        """
        from multiprocessing import shared_memory

        total = self.indptr.size + self.indices.size + self.degrees.size
        shm = shared_memory.SharedMemory(create=True, size=total * 8)
        flat = np.frombuffer(shm.buf, dtype=np.int64)
        a, b = self.indptr.size, self.indptr.size + self.indices.size
        flat[:a] = self.indptr
        flat[a:b] = self.indices
        flat[b:total] = self.degrees
        handle = SharedGraph(shm.name, self.n, self.m, self.name)
        handle._shm = shm
        handle._owner = True
        return handle

    @classmethod
    def from_shared(cls, handle: "SharedGraph") -> "Graph":
        """Build a zero-copy :class:`Graph` over a shared segment.

        The returned graph's CSR arrays are read-only views into the
        mapping held by ``handle``; no topology bytes are copied.  The
        views keep the mapping alive even after ``handle.close()``, but
        the segment itself lives until its creator calls ``unlink()``.
        """
        flat = np.frombuffer(handle._segment().buf, dtype=np.int64)
        n, m = handle.n, handle.m
        a, b = n + 1, n + 1 + 2 * m
        return cls._from_csr(
            n, m, flat[:a], flat[a:b], flat[b : b + n], handle.graph_name
        )

    # ------------------------------------------------------------------
    # Pickling (needed to ship graphs to worker processes)
    # ------------------------------------------------------------------
    @classmethod
    def _from_csr(
        cls,
        n: int,
        m: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        name: str,
    ) -> "Graph":
        """Reconstruct without re-canonicalising (trusted internal data)."""
        g = cls.__new__(cls)
        g.n = n
        g.m = m
        g.indptr = indptr
        g.indices = indices
        g.degrees = degrees
        g.name = name
        g._freeze()
        return g

    def __reduce__(self):
        return (
            Graph._from_csr,
            (
                self.n,
                self.m,
                self.indptr.copy(),
                self.indices.copy(),
                self.degrees.copy(),
                self.name,
            ),
        )

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        reg = f", {self.dmax}-regular" if self.is_regular() else ""
        return f"Graph(name={self.name!r}, n={self.n}, m={self.m}{reg})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.indices.tobytes()))


class _Scratch(threading.local):
    """Grow-only reusable buffers for the per-call sampling hot path.

    :meth:`Graph.sample_neighbors` runs every round of every gossip
    process; its two intermediate arrays (the uniform draws and the
    integer offsets) used to be fresh heap allocations per call.  One
    module-level instance hands out views of persistent buffers that
    only ever grow.  The views are valid until the *next* request of
    the same dtype — callers must finish with them within the call.

    The buffers are per thread (``threading.local`` runs ``__init__``
    afresh in each thread that touches the instance): in-process
    workers run shards on concurrent threads, and
    ``Generator.random(out=...)`` fills its buffer with the GIL
    released, so one shared buffer would hand a thread another
    thread's draws.
    """

    def __init__(self) -> None:
        self._f64 = np.empty(0, dtype=np.float64)
        self._i64 = np.empty(0, dtype=np.int64)

    def floats(self, k: int) -> np.ndarray:
        """A length-``k`` float64 view (contents undefined)."""
        if self._f64.shape[0] < k:
            self._f64 = np.empty(max(k, 2 * self._f64.shape[0]), dtype=np.float64)
        return self._f64[:k]

    def ints(self, k: int) -> np.ndarray:
        """A length-``k`` int64 view (contents undefined)."""
        if self._i64.shape[0] < k:
            self._i64 = np.empty(max(k, 2 * self._i64.shape[0]), dtype=np.int64)
        return self._i64[:k]


_SCRATCH = _Scratch()

# Grow-only 0..N template backing _ragged_arange (read-only: consumers
# get it as the subtrahend of an out= subtraction, never to mutate).
_ARANGE_TEMPLATE = np.empty(0, dtype=np.int64)


def _arange_template(total: int) -> np.ndarray:
    """The first ``total`` entries of a cached, read-only ``arange``.

    Slices the local reference, never the global again: another thread
    may rebind the cache to a shorter ramp in between.
    """
    global _ARANGE_TEMPLATE
    template = _ARANGE_TEMPLATE
    if template.shape[0] < total:
        template = np.arange(max(total, 2 * template.shape[0]), dtype=np.int64)
        template.setflags(write=False)
        _ARANGE_TEMPLATE = template
    return template[:total]


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each c in counts, vectorised.

    E.g. counts=[2,0,3] -> [0,1,0,1,2].  The returned array is freshly
    allocated (callers may mutate it); the linear ramp it is built from
    comes from the grow-only module cache, saving one allocation plus
    an O(total) fill per call on the BFS hot paths.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    out = np.repeat(starts, counts)
    np.subtract(_arange_template(total), out, out=out)
    return out
