"""Baseline propagation processes COBRA is compared against (E9).

Every random baseline executes through the unified batched engine
(:mod:`repro.engine`); the samplers advance all their runs inside one
``(R, n)`` boolean program per shard, on the sharded stream of
:meth:`repro.engine.SpreadEngine.run_sharded`.  Flooding draws
nothing, so it is a BFS (:mod:`repro.baselines.flooding`).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "flooding": ["flooding_broadcast_time", "flooding_broadcast_times"],
        "multi_walk": ["multi_walk_cover_samples"],
        "pull": ["pull_broadcast_samples", "push_pull_broadcast_samples"],
        "push": ["push_broadcast_samples"],
        "random_walk": ["random_walk_cover_samples"],
    },
)
