"""Simple random walk baseline (COBRA with branching factor ``b = 1``).

The paper's motivation: a single random walk achieves the minimal
transmission rate but covers any graph only in ``Ω(n log n)`` expected
rounds, whereas COBRA with ``b = 2`` targets polylogarithmic cover on
good graphs.  This module provides the cover-time sampler used in the
E9 comparison table.

Cover sampling is :func:`~repro.baselines.multi_walk.multi_walk_cover_samples`
with one walker: ``R`` independent walks advance one step per round
inside one flattened neighbour-sample, drawing one uniform per walker
per step via :meth:`~repro.graphs.Graph.sample_neighbors`.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from .multi_walk import multi_walk_cover_samples

__all__ = ["random_walk_cover_samples"]


def random_walk_cover_samples(
    graph: Graph,
    start: int = 0,
    runs: int = 16,
    *,
    rng: np.random.Generator | int | None = None,
    lazy: bool = False,
    max_steps: int | None = None,
) -> np.ndarray:
    """Sample the walk's cover time ``runs`` times (batched engine).

    A round here is one step, matching COBRA's round at ``b = 1``.
    """
    return multi_walk_cover_samples(
        graph, 1, start, runs, rng=rng, lazy=lazy, max_rounds=max_steps
    )
