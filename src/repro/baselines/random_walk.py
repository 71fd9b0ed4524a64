"""Simple random walk baseline (COBRA with branching factor ``b = 1``).

The paper's motivation: a single random walk achieves the minimal
transmission rate but covers any graph only in ``Ω(n log n)`` expected
rounds, whereas COBRA with ``b = 2`` targets polylogarithmic cover on
good graphs.  This module provides the walk itself plus cover/hitting
time samplers used in the E9 comparison table.

Cover sampling is :func:`~repro.baselines.multi_walk.multi_walk_cover_samples`
with one walker: ``R`` independent walks advance one step per round
inside one flattened neighbour-sample, drawing one uniform per walker
per step via :meth:`~repro.graphs.Graph.sample_neighbors` (the
historical scalar loop drew its uniforms in blocks of 4096, an
implementation detail that is *not* preserved bit-for-bit;
distributions are identical).  :func:`walk_trajectory` keeps the
block-drawing fast path for single-trajectory inspection.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, require_connected
from .multi_walk import multi_walk_cover_samples

__all__ = ["random_walk_cover_samples", "walk_trajectory"]


def walk_trajectory(
    graph: Graph,
    start: int,
    steps: int,
    rng: np.random.Generator,
    *,
    lazy: bool = False,
) -> np.ndarray:
    """Simulate ``steps`` steps; return positions (length ``steps + 1``).

    Vectorised trick: at each step the walker needs one uniform
    neighbour, but drawing per-step from Python is slow, so we draw
    uniforms in blocks and resolve the CSR lookups per step (the state
    dependency forbids full vectorisation across time).
    """
    require_connected(graph)
    pos = check_vertex(graph, start)
    out = np.empty(steps + 1, dtype=np.int64)
    out[0] = pos
    uniforms = rng.random(steps)
    if lazy:
        stays = rng.random(steps) < 0.5
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees
    for i in range(steps):
        if lazy and stays[i]:
            out[i + 1] = pos
            continue
        pos = indices[indptr[pos] + int(uniforms[i] * degrees[pos])]
        out[i + 1] = pos
    return out


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
