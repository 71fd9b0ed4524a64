"""Hitting-time utilities and the classical random-walk cross-check.

For branching factor ``b = 1`` the COBRA process *is* a simple random
walk, so its hit times must match classical Markov-chain theory.  This
module computes exact expected hitting times ``H(u, v)`` by solving the
linear system

    ``H(u, v) = 1 + (1/d(u)) Σ_{w ∈ N(u)} H(w, v)``,   ``H(v, v) = 0``

and provides Monte-Carlo hit-time survival estimation for any branching
factor — the empirical counterpart of
:func:`repro.core.exact.cobra_hit_survival_exact` at scales where the
exact chain is out of reach.  Its runs are drawn, like every sampler's,
from :meth:`~repro.engine.SpreadEngine.run_sharded`, each stopping at
its hit (:class:`~repro.engine.completion.TargetHit` completion).
"""

from __future__ import annotations

import numpy as np

from ..engine.completion import TargetHit
from ..engine.engine import SpreadEngine
from ..engine.rules import CobraRule
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, check_vertex_set, require_connected
from ..stats.survival import SurvivalCurve, empirical_survival
from .branching import BranchingPolicy, make_policy

__all__ = [
    "random_walk_hitting_times",
    "random_walk_hitting_time",
    "cobra_hit_survival_mc",
]


def random_walk_hitting_times(graph: Graph, target: int) -> np.ndarray:
    """Exact ``E[hitting time of target]`` from every start vertex.

    Solves the ``(n−1) × (n−1)`` linear system above (dense; fine for
    the n ≤ a-few-thousand graphs the experiments use).  Entry
    ``target`` is 0.
    """
    require_connected(graph)
    target = check_vertex(graph, target)
    n = graph.n
    others = [u for u in range(n) if u != target]
    index = {u: i for i, u in enumerate(others)}
    a = np.eye(n - 1)
    rhs = np.ones(n - 1)
    for u in others:
        i = index[u]
        du = graph.degree(u)
        for w in graph.neighbors(u):
            w = int(w)
            if w != target:
                a[i, index[w]] -= 1.0 / du
    sol = np.linalg.solve(a, rhs)
    out = np.zeros(n)
    for u in others:
        out[u] = sol[index[u]]
    return out


def random_walk_hitting_time(graph: Graph, start: int, target: int) -> float:
    """Exact ``H(start, target)`` for the simple random walk."""
    return float(random_walk_hitting_times(graph, target)[check_vertex(graph, start)])


def cobra_hit_survival_mc(
    graph: Graph,
    start,
    target: int,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    runs: int = 1000,
    horizon: int = 64,
    rng=None,
) -> SurvivalCurve:
    """Monte-Carlo ``P(Hit(target) > T | C_0 = start)`` for ``T ≤ horizon``.

    ``start`` is a vertex or a vertex set.  The ``runs`` runs are drawn
    from the sharded stream of ``rng`` and stop at their hit; a run
    still unhit at ``horizon`` is censored (counted as surviving), so
    the curve is exact in expectation at every ``T ≤ horizon``.
    """
    require_connected(graph)
    target = check_vertex(graph, target)
    start = check_vertex_set(graph, [start] if np.ndim(start) == 0 else start)
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, start] = True
    rule = CobraRule(make_policy(branching), lazy=lazy)
    hits = SpreadEngine(rule, graph, TargetHit(target)).run_sharded(
        state, rng, workers=1, max_rounds=horizon
    ).finish_times
    return empirical_survival(hits, horizon=horizon)
