"""Baseline propagation processes COBRA is compared against (E9).

Every random baseline executes through the unified batched engine
(:mod:`repro.engine`); the samplers advance all their runs inside one
``(R, n)`` boolean program per shard, on the sharded stream of
:meth:`repro.engine.SpreadEngine.run_sharded`.  Flooding draws
nothing, so it is a BFS (:mod:`repro.baselines.flooding`).
"""

from .flooding import (
    flooding_broadcast_time,
    flooding_broadcast_times,
    flooding_frontier_sizes,
)
from .multi_walk import multi_walk_cover_samples
from .pull import pull_broadcast_samples, push_pull_broadcast_samples
from .push import push_broadcast_samples
from .random_walk import random_walk_cover_samples, walk_trajectory

__all__ = [
    "flooding_broadcast_time",
    "flooding_broadcast_times",
    "flooding_frontier_sizes",
    "multi_walk_cover_samples",
    "pull_broadcast_samples",
    "push_pull_broadcast_samples",
    "push_broadcast_samples",
    "random_walk_cover_samples",
    "walk_trajectory",
]
