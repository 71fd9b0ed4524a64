"""Spectral toolkit: eigenvalue gap and conductance.

The paper's regular-graph bound (Theorem 1.2) is stated in terms of the
second-largest eigenvalue *in absolute value*, ``λ``, of the random-walk
transition matrix ``P = A / r``; the comparison bounds from
[Mitzenmacher et al., SPAA 2016] use the conductance ``ϕ``.  This module
computes both (exactly for small graphs, via sparse Lanczos for large
ones) plus the Cheeger-inequality cross-checks that relate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "second_eigenvalue",
    "eigenvalue_gap",
    "transition_matrix",
    "random_walk_spectrum",
    "cheeger_bounds",
    "sweep_conductance",
    "conductance_of_cut",
    "SpectralProfile",
    "spectral_profile",
]

#: Above this vertex count we switch from dense ``eigh`` to sparse Lanczos.
_DENSE_LIMIT = 600


def transition_matrix(graph: Graph, *, lazy: bool = False) -> np.ndarray:
    """Dense random-walk transition matrix ``P[u, v] = 1/d(u)`` for edges.

    With ``lazy=True`` returns ``(I + P) / 2`` (the lazy walk used for
    bipartite graphs, cf. the remark before Theorem 1.2).
    """
    if graph.dmin == 0:
        raise ValueError("transition matrix undefined for isolated vertices")
    p = graph.adjacency_matrix().toarray()
    p /= graph.degrees[:, None]
    if lazy:
        p = 0.5 * (np.eye(graph.n) + p)
    return p


def random_walk_spectrum(graph: Graph, *, lazy: bool = False) -> np.ndarray:
    """All eigenvalues of the random-walk transition matrix, descending.

    Uses the symmetrised form ``D^{-1/2} A D^{-1/2}`` (similar to ``P``,
    hence same spectrum) so a symmetric eigensolver applies even for
    irregular graphs.
    """
    if graph.n > 5000:  # pragma: no cover - guardrail
        raise ValueError("full spectrum requested for a very large graph")
    d_isqrt = 1.0 / np.sqrt(graph.degrees.astype(np.float64))
    a = graph.adjacency_matrix().toarray()
    sym = a * d_isqrt[:, None] * d_isqrt[None, :]
    if lazy:
        sym = 0.5 * (np.eye(graph.n) + sym)
    vals = np.linalg.eigvalsh(sym)
    return vals[::-1]


def second_eigenvalue(graph: Graph, *, lazy: bool = False) -> float:
    """``λ = max_{i >= 2} |λ_i|`` of the random-walk matrix.

    This is the quantity in Theorem 1.2.  For a connected non-bipartite
    graph ``λ < 1``; for a bipartite graph ``λ = 1`` (use ``lazy=True``
    to recover a positive gap, matching the paper's lazy-COBRA remark).
    """
    if graph.n == 1:
        return 0.0
    if graph.n <= _DENSE_LIMIT:
        vals = random_walk_spectrum(graph, lazy=lazy)
        return float(max(abs(vals[1]), abs(vals[-1])))
    from scipy.sparse import diags, identity
    from scipy.sparse.linalg import eigsh

    d_isqrt = diags(1.0 / np.sqrt(graph.degrees.astype(np.float64)))
    sym = d_isqrt @ graph.adjacency_matrix() @ d_isqrt
    if lazy:
        sym = 0.5 * (identity(graph.n) + sym)
    # Largest two algebraic and the smallest; λ1 = 1 always.
    top = eigsh(sym, k=2, which="LA", return_eigenvectors=False, tol=1e-10)
    bot = eigsh(sym, k=1, which="SA", return_eigenvectors=False, tol=1e-10)
    second = float(np.sort(top)[0])
    smallest = float(bot[0])
    return max(abs(second), abs(smallest))


def eigenvalue_gap(graph: Graph, *, lazy: bool = False) -> float:
    """The gap ``1 - λ`` appearing throughout the paper's bounds."""
    return 1.0 - second_eigenvalue(graph, lazy=lazy)


def conductance_of_cut(graph: Graph, subset: np.ndarray) -> float:
    """Conductance ``ϕ(S) = E(S, V\\S) / min(d(S), d(V\\S))`` of one cut."""
    mask = np.zeros(graph.n, dtype=bool)
    mask[np.asarray(subset, dtype=np.int64)] = True
    if not mask.any() or mask.all():
        raise ValueError("cut must be a proper nonempty subset")
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    crossing = int(np.count_nonzero(mask[src] & ~mask[graph.indices]))
    d_s = int(graph.degrees[mask].sum())
    d_rest = graph.total_degree() - d_s
    return crossing / min(d_s, d_rest)


def sweep_conductance(graph: Graph) -> tuple[float, np.ndarray]:
    """Upper-bound the conductance via a Fiedler-vector sweep cut.

    Sorts vertices by the second eigenvector of the normalised adjacency
    and returns the best prefix cut — the standard spectral-partitioning
    certificate.  Returns ``(phi, subset)``.
    """
    d_isqrt = 1.0 / np.sqrt(graph.degrees.astype(np.float64))
    if graph.n <= _DENSE_LIMIT:
        a = graph.adjacency_matrix().toarray()
        sym = a * d_isqrt[:, None] * d_isqrt[None, :]
        vals, vecs = np.linalg.eigh(sym)
        fiedler = vecs[:, -2]
    else:
        from scipy.sparse import diags
        from scipy.sparse.linalg import eigsh

        dm = diags(d_isqrt)
        sym = dm @ graph.adjacency_matrix() @ dm
        _, vecs = eigsh(sym, k=2, which="LA", tol=1e-8)
        fiedler = vecs[:, 0]
    embedding = fiedler * d_isqrt  # D^{-1/2} x: the random-walk eigenvector
    order = np.argsort(embedding)
    best_phi, best_k = np.inf, 1
    # Incremental sweep: maintain crossing-edge count as vertices move
    # across the cut one at a time.
    in_s = np.zeros(graph.n, dtype=bool)
    crossing = 0
    d_s = 0
    total = graph.total_degree()
    for k, u in enumerate(order[:-1], start=1):
        nbrs = graph.neighbors(u)
        inside = int(np.count_nonzero(in_s[nbrs]))
        crossing += graph.degree(u) - 2 * inside
        in_s[u] = True
        d_s += graph.degree(u)
        denom = min(d_s, total - d_s)
        phi = crossing / denom
        if phi < best_phi:
            best_phi, best_k = phi, k
    return float(best_phi), order[:best_k].copy()


def cheeger_bounds(graph: Graph) -> tuple[float, float]:
    """Cheeger sandwich for conductance: ``gap/2 <= ϕ <= sqrt(2 gap)``.

    ``gap`` here is ``1 - λ2`` (the algebraic second eigenvalue, not the
    absolute one).  The paper uses ``1 - λ >= ϕ² / 2`` to conclude its
    regular bound also improves on the SPAA'16 conductance bound.
    """
    vals = random_walk_spectrum(graph)
    gap2 = 1.0 - float(vals[1])
    return gap2 / 2.0, float(np.sqrt(2.0 * gap2))


@dataclass(frozen=True)
class SpectralProfile:
    """A bundle of the spectral quantities the experiments report."""

    second_eigenvalue: float
    gap: float
    lazy_gap: float
    conductance_upper: float
    cheeger_lower: float
    cheeger_upper: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"lambda={self.second_eigenvalue:.4f} gap={self.gap:.4f} "
            f"phi<={self.conductance_upper:.4f}"
        )


def spectral_profile(graph: Graph) -> SpectralProfile:
    """Compute the full :class:`SpectralProfile` of a graph."""
    lam = second_eigenvalue(graph)
    lazy_gap = eigenvalue_gap(graph, lazy=True)
    phi, _ = sweep_conductance(graph)
    lo, hi = cheeger_bounds(graph)
    return SpectralProfile(
        second_eigenvalue=lam,
        gap=1.0 - lam,
        lazy_gap=lazy_gap,
        conductance_upper=phi,
        cheeger_lower=lo,
        cheeger_upper=hi,
    )
