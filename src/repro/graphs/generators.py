"""Graph family generators.

Every family that appears in the paper's discussion or in its cited
comparisons is constructible here: complete graphs, cycles/paths,
D-dimensional grids and tori, hypercubes, random regular graphs
(expanders w.h.p.), Erdős–Rényi graphs, stars, binary trees, and the
low-conductance extremal families (barbell, lollipop, ring of cliques)
that stress the general bound of Theorem 1.1.

All generators return :class:`repro.graphs.Graph` and accept an
optional ``rng``/``seed`` where randomness is involved.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ..stats.rng import generator_from
from .graph import Graph

__all__ = [
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "binary_tree",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "random_regular_graph",
    "erdos_renyi_graph",
    "barbell_graph",
    "lollipop_graph",
    "margulis_expander",
    "petersen_graph",
    "ring_of_cliques",
    "caterpillar_graph",
]


def complete_graph(n: int) -> Graph:
    """Complete graph ``K_n`` (the paper's O(log n) COBRA showcase)."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges, name=f"complete-{n}")


def cycle_graph(n: int) -> Graph:
    """Cycle ``C_n`` — 2-regular, diameter ``n // 2``."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges, name=f"cycle-{n}")


def path_graph(n: int) -> Graph:
    """Path ``P_n`` — the diameter-extremal tree."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, name=f"path-{n}")


def star_graph(n: int) -> Graph:
    """Star ``S_{n-1}``: centre 0 joined to ``n - 1`` leaves.

    Maximises ``dmax`` at fixed ``m`` — an extremal input for the
    ``(dmax)^2 log n`` term in Theorem 1.1.
    """
    if n < 2:
        raise ValueError("star needs n >= 2")
    edges = [(0, i) for i in range(1, n)]
    return Graph(n, edges, name=f"star-{n}")


def binary_tree(height: int) -> Graph:
    """Complete binary tree of the given height (``2^(h+1) - 1`` vertices)."""
    if height < 1:
        raise ValueError("binary tree needs height >= 1")
    n = 2 ** (height + 1) - 1
    edges = [(i, 2 * i + 1) for i in range((n - 1) // 2)]
    edges += [(i, 2 * i + 2) for i in range((n - 1) // 2)]
    return Graph(n, edges, name=f"btree-{height}")


def _lattice_edges(dims: Sequence[int], periodic: bool) -> tuple[int, list[tuple[int, int]]]:
    dims = list(dims)
    n = int(np.prod(dims))
    strides = np.ones(len(dims), dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    edges: list[tuple[int, int]] = []
    for coord in itertools.product(*(range(d) for d in dims)):
        u = int(np.dot(coord, strides))
        for axis, d in enumerate(dims):
            c = coord[axis]
            if c + 1 < d:
                v = u + int(strides[axis])
                edges.append((u, v))
            elif periodic and d > 2:
                v = u - (d - 1) * int(strides[axis])
                edges.append((u, v))
    return n, edges


def grid_graph(dims: Sequence[int]) -> Graph:
    """D-dimensional grid with open boundaries, e.g. ``grid_graph([32, 32])``.

    The paper cites a cover time of ``Õ(n^(1/D))`` for COBRA on
    D-dimensional grids.
    """
    if not dims or any(d < 2 for d in dims):
        raise ValueError("grid needs every dimension >= 2")
    n, edges = _lattice_edges(dims, periodic=False)
    label = "x".join(str(d) for d in dims)
    return Graph(n, edges, name=f"grid-{label}")


def torus_graph(dims: Sequence[int]) -> Graph:
    """D-dimensional torus (periodic grid) — regular, so Theorem 1.2 applies."""
    if not dims or any(d < 3 for d in dims):
        raise ValueError("torus needs every dimension >= 3")
    n, edges = _lattice_edges(dims, periodic=True)
    label = "x".join(str(d) for d in dims)
    return Graph(n, edges, name=f"torus-{label}")


def hypercube_graph(dim: int) -> Graph:
    """Hypercube ``Q_d`` with ``n = 2^d`` vertices, degree ``d = log2 n``.

    The paper's flagship example: eigenvalue gap ``1 - λ = Θ(1/log n)``,
    giving bound ladder O(log^8 n) → O(log^4 n) → O(log^3 n).
    """
    if dim < 1:
        raise ValueError("hypercube needs dim >= 1")
    n = 1 << dim
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < (u ^ (1 << b))]
    return Graph(n, edges, name=f"hypercube-{dim}")


def _repair_pairing(
    u: np.ndarray, v: np.ndarray, n: int, gen: np.random.Generator, max_sweeps: int
) -> bool:
    """Remove self-loops/multi-edges from a pairing by random edge swaps.

    The standard configuration-model repair: for each defective edge
    ``(u_i, v_i)`` pick a random partner edge ``(u_j, v_j)`` and swap
    ``v_i ↔ v_j`` — degrees are preserved and defects disappear
    geometrically fast.  Returns True on success (arrays fixed in
    place).
    """
    m = u.shape[0]
    for _ in range(max_sweeps):
        key = np.minimum(u, v) * np.int64(n) + np.maximum(u, v)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        dup = np.zeros(m, dtype=bool)
        dup[order[1:]] = sorted_key[1:] == sorted_key[:-1]
        bad = np.nonzero(dup | (u == v))[0]
        if bad.size == 0:
            return True
        partners = gen.integers(0, m, size=bad.size)
        for i, j in zip(bad.tolist(), partners.tolist()):
            v[i], v[j] = v[j], v[i]
    return False


def random_regular_graph(
    n: int, r: int, rng: np.random.Generator | int | None = None, *, max_tries: int = 50
) -> Graph:
    """Random ``r``-regular graph via the configuration model with repair.

    A uniform stub pairing is drawn, then self-loops and multi-edges are
    removed by degree-preserving random edge swaps (pure rejection has
    acceptance ``~e^{-r²/4}`` and is hopeless beyond ``r ≈ 5``).  The
    result is sampled from (approximately) the uniform simple-pairing
    distribution and is an expander w.h.p. (``1 - λ = Ω(1)``) — the
    regime where Theorem 1.2 gives ``O((r + r²) log n)``.
    """
    if n * r % 2 != 0:
        raise ValueError("n * r must be even")
    if not 3 <= r < n:
        raise ValueError("need 3 <= r < n for a connected regular graph")
    gen = generator_from(rng)
    stubs = np.repeat(np.arange(n, dtype=np.int64), r)
    for _ in range(max_tries):
        perm = gen.permutation(stubs)
        u, v = perm[0::2].copy(), perm[1::2].copy()
        if not _repair_pairing(u, v, n, gen, max_sweeps=200):
            continue
        g = Graph(n, np.column_stack((u, v)), name=f"rreg-{r}-{n}")
        if g.m == n * r // 2 and g.is_connected():
            return g
    raise RuntimeError(
        f"failed to sample a simple connected {r}-regular graph on {n} vertices "
        f"in {max_tries} tries"
    )


def erdos_renyi_graph(
    n: int,
    p: float | None = None,
    rng: np.random.Generator | int | None = None,
    *,
    connected: bool = True,
    max_tries: int = 100,
) -> Graph:
    """Erdős–Rényi ``G(n, p)``; defaults to ``p = 2 ln n / n`` (connected w.h.p.).

    With ``connected=True`` resamples until the graph is connected.
    """
    if n < 2:
        raise ValueError("G(n, p) needs n >= 2")
    if p is None:
        p = min(1.0, 2.0 * np.log(n) / n)
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    gen = generator_from(rng)
    iu, iv = np.triu_indices(n, k=1)
    for _ in range(max_tries):
        mask = gen.random(iu.shape[0]) < p
        g = Graph(n, np.column_stack((iu[mask], iv[mask])), name=f"gnp-{n}")
        if not connected or (g.m >= n - 1 and g.dmin >= 1 and g.is_connected()):
            return g
    raise RuntimeError(f"failed to sample a connected G({n}, {p}) in {max_tries} tries")


def barbell_graph(k: int) -> Graph:
    """Two ``K_k`` cliques joined by a single edge (``n = 2k``).

    The classic low-conductance family: ``m = Θ(n^2)`` so Theorem 1.1's
    ``O(m + dmax^2 log n)`` bound is ``Θ(n^2 log n)`` — the regime the
    paper's general bound targets.
    """
    if k < 3:
        raise ValueError("barbell needs clique size >= 3")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(k + u, k + v) for u in range(k) for v in range(u + 1, k)]
    edges.append((k - 1, k))
    return Graph(2 * k, edges, name=f"barbell-{k}")


def lollipop_graph(k: int, path_len: int) -> Graph:
    """A ``K_k`` clique with a path of ``path_len`` vertices attached."""
    if k < 3 or path_len < 1:
        raise ValueError("lollipop needs clique size >= 3 and path length >= 1")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    prev = k - 1
    for i in range(path_len):
        edges.append((prev, k + i))
        prev = k + i
    return Graph(k + path_len, edges, name=f"lollipop-{k}-{path_len}")


def margulis_expander(side: int) -> Graph:
    """Margulis–Gabber–Galil expander on ``Z_side x Z_side``.

    Each vertex ``(x, y)`` connects to ``(x±y, y)``, ``(x±(y+1), y)``,
    ``(x, y±x)``, ``(x, y±(x+1))`` (mod ``side``); loops/multi-edges are
    collapsed, so the graph is near-8-regular with a constant spectral
    gap — a deterministic constant-degree expander for the paper's
    "regular constant-degree expander" claims.
    """
    if side < 2:
        raise ValueError("margulis expander needs side >= 2")
    s = side

    def vid(x: int, y: int) -> int:
        return (x % s) * s + (y % s)

    edges = []
    for x in range(s):
        for y in range(s):
            u = vid(x, y)
            for v in (
                vid(x + y, y),
                vid(x - y, y),
                vid(x + y + 1, y),
                vid(x - y - 1, y),
                vid(x, y + x),
                vid(x, y - x),
                vid(x, y + x + 1),
                vid(x, y - x - 1),
            ):
                if u != v:
                    edges.append((u, v))
    return Graph(s * s, edges, name=f"margulis-{s}")


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """``num_cliques`` copies of ``K_k`` arranged in a ring, joined by
    single edges between consecutive cliques.

    A tunable low-conductance family interpolating between the barbell
    (2 cliques) and the cycle (k = 1-ish): conductance ``Θ(1/k²)`` with
    diameter ``Θ(num_cliques)``.
    """
    if num_cliques < 3 or clique_size < 3:
        raise ValueError("need >= 3 cliques of size >= 3")
    k = clique_size
    edges = []
    for c in range(num_cliques):
        base = c * k
        edges += [(base + u, base + v) for u in range(k) for v in range(u + 1, k)]
        nxt = ((c + 1) % num_cliques) * k
        edges.append((base + k - 1, nxt))  # bridge to the next clique
    return Graph(num_cliques * k, edges, name=f"cliquering-{num_cliques}x{k}")


def caterpillar_graph(spine: int, legs: int) -> Graph:
    """A path of ``spine`` vertices with ``legs`` pendant leaves each.

    A tree with tunable dmax at linear diameter — separates the ``m``
    and ``dmax² log n`` terms of Theorem 1.1 differently from the star
    (which has no diameter) and the path (which has no degree).
    """
    if spine < 2 or legs < 1:
        raise ValueError("need spine >= 2 and legs >= 1")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            edges.append((i, nxt))
            nxt += 1
    return Graph(spine * (1 + legs), edges, name=f"caterpillar-{spine}x{legs}")


def petersen_graph() -> Graph:
    """The Petersen graph — a small named 3-regular test instance."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner, name="petersen")
