"""Pull and push–pull rumour spreading.

Complements :mod:`repro.baselines.push`: in **pull**, every *uninformed*
vertex asks one random neighbour per round and learns the rumour if the
neighbour knows it; **push–pull** does both.  Push–pull is the
fastest memory-ful gossip primitive (Θ(log n) on much wider graph
classes than push alone) and is the strongest same-budget comparison
point for COBRA.

Note the structural kinship: a BIPS round *is* a pull round with ``b``
requests and SIS forgetting — pull is what BIPS becomes if vertices
never lose the infection.

Both samplers execute through the unified batched engine
(:class:`repro.engine.SpreadEngine` with
:class:`~repro.engine.rules.PullRule` /
:class:`~repro.engine.rules.PushPullRule`) on the sharded stream, as
:func:`repro.baselines.push.push_broadcast_samples` does.
"""

from __future__ import annotations

import numpy as np

from ..engine.rules import PullRule, PushPullRule
from ..graphs.graph import Graph
from .push import _broadcast_samples

__all__ = ["pull_broadcast_samples", "push_pull_broadcast_samples"]


def pull_broadcast_samples(
    graph: Graph,
    start: int = 0,
    runs: int = 16,
    *,
    rng: np.random.Generator | int | None = None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sample the pull-only broadcast time ``runs`` times (batched engine)."""
    return _broadcast_samples(PullRule(), "pull", graph, start, runs, rng, max_rounds)


def push_pull_broadcast_samples(
    graph: Graph,
    start: int = 0,
    runs: int = 16,
    *,
    rng: np.random.Generator | int | None = None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sample the push–pull broadcast time ``runs`` times (batched).

    Informed vertices push and uninformed vertices pull; both halves act
    on the start-of-round state (simultaneity), and the push half draws
    its neighbours first.
    """
    return _broadcast_samples(
        PushPullRule(), "push-pull", graph, start, runs, rng, max_rounds
    )
