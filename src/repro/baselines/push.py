"""Push rumour spreading — the classic epidemic broadcast baseline.

Every round, every *informed* vertex pushes the rumour to one uniformly
random neighbour; informed vertices stay informed forever.  This is the
natural memory-ful counterpart of COBRA: same per-vertex transmission
budget as ``b = 1``, but without COBRA's "forget unless re-hit" rule.
On expanders push completes in ``Θ(log n)`` rounds — the target COBRA
aspires to with only one round of memory.

The sampler executes through the unified batched engine
(:class:`repro.engine.SpreadEngine` with a
:class:`~repro.engine.rules.PushRule`): it advances all runs inside one
``(R, n)`` boolean program per shard, on the sharded stream of
:meth:`~repro.engine.SpreadEngine.run_sharded` (one spawned seed per
shard), like every static sampler in the repo.
"""

from __future__ import annotations

import numpy as np

from ..engine.engine import SpreadEngine
from ..engine.rules import PushRule
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, require_connected
from ..parallel.sharding import finished_times_or_raise

__all__ = ["push_broadcast_samples"]


def _broadcast_samples(
    rule, label: str, graph: Graph, start: int, runs: int, rng, max_rounds
) -> np.ndarray:
    """Sample a gossip rule's broadcast time from ``start`` ``runs`` times."""
    require_connected(graph)
    state = np.zeros((max(int(runs), 0), graph.n), dtype=bool)
    state[:, check_vertex(graph, start)] = True
    res = SpreadEngine(rule, graph).run_sharded(
        state, rng, workers=1, max_rounds=max_rounds
    )
    return finished_times_or_raise(res.finish_times, f"{label} on {graph.name}")


def push_broadcast_samples(
    graph: Graph,
    start: int = 0,
    runs: int = 16,
    *,
    rng: np.random.Generator | int | None = None,
    fanout: int = 1,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sample the push broadcast time ``runs`` times (batched engine).

    ``fanout`` is the number of random neighbours each informed vertex
    pushes to per round (1 is the classic protocol; 2 matches COBRA's
    transmission budget at ``b = 2``).  Raises if a run hits the cap.
    """
    return _broadcast_samples(
        PushRule(fanout), "push", graph, start, runs, rng, max_rounds
    )
