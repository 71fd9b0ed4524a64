"""Deterministic flooding — the information-propagation speed limit.

Every informed vertex transmits to *all* neighbours each round, so the
informed set after ``t`` rounds is exactly the BFS ball of radius ``t``
and broadcast completes in ``ecc(start)`` rounds (``<= Diam(G)``).
Flooding spends ``d(u)`` transmissions per vertex per round — the
budget COBRA caps at ``b`` — and realises the ``Diam(G)`` part of the
paper's universal lower bound ``max{log₂ n, Diam(G)}``.

Flooding draws no randomness, so it is a BFS, not an engine rule:
:func:`flooding_broadcast_time` reads one start's eccentricity, and
:func:`flooding_broadcast_times` advances the BFS balls of many starts
together, packed 64 runs per word
(:func:`repro.graphs.properties.eccentricities`).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..graphs.properties import eccentricities, eccentricity
from ..graphs.validation import check_vertex, require_connected

__all__ = ["flooding_broadcast_time", "flooding_broadcast_times"]


def flooding_broadcast_time(graph: Graph, start: int = 0) -> int:
    """Rounds for flooding to inform everyone — equals ``ecc(start)``."""
    require_connected(graph)
    return eccentricity(graph, check_vertex(graph, start))


def flooding_broadcast_times(graph: Graph, starts) -> np.ndarray:
    """Flooding broadcast times (eccentricities) for many start vertices.

    All starts advance together in one packed multi-source BFS
    (:func:`repro.graphs.properties.eccentricities`); the result is
    ``[ecc(s) for s in starts]``.
    """
    require_connected(graph)
    return eccentricities(graph, starts)
