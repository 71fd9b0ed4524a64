"""Multiple independent random walks (the [Alon et al.; Elsässer–Sauerwald]
comparison point).

``k`` walkers move simultaneously and independently, one step per
round; the cover time is the first round by which every vertex has been
visited by some walker.  Unlike COBRA the walker population is fixed —
no branching, no coalescing — which is exactly the dependence structure
the paper contrasts COBRA against.

Execution goes through the unified batched engine
(:class:`repro.engine.SpreadEngine` with a
:class:`~repro.engine.rules.WalkRule`) on the sharded stream: one run
keeps a ``(1, k)`` position row, and a shard of ``R`` runs advances
``R × k`` walkers per flattened neighbour-sample.
"""

from __future__ import annotations

import numpy as np

from ..engine.engine import SpreadEngine
from ..engine.rules import WalkRule
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, require_connected
from ..parallel.sharding import finished_times_or_raise

__all__ = ["multi_walk_cover_samples"]


def multi_walk_cover_samples(
    graph: Graph,
    k: int,
    start: int = 0,
    runs: int = 16,
    *,
    rng: np.random.Generator | int | None = None,
    lazy: bool = False,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sample the cover time of ``k`` walkers from ``start``, ``runs`` times.

    Multiple walks speed up cover by between ``Θ(log k)`` and ``Θ(k)``
    depending on the graph (Elsässer–Sauerwald), so the default cap is
    the single-walk one — finishing early costs nothing.  Raises if a
    run hits the cap.
    """
    rule = WalkRule(k, lazy=lazy)
    require_connected(graph)
    state = np.full((max(int(runs), 0), k), check_vertex(graph, start), dtype=np.int64)
    res = SpreadEngine(rule, graph).run_sharded(
        state, rng, workers=1, max_rounds=max_rounds
    )
    return finished_times_or_raise(res.finish_times, f"{k}-walk on {graph.name}")
