"""Parallel execution substrate: pools and R-axis sharding."""

from .pool import default_workers, parallel_map, pool_chunk_size
from .sharding import (
    DEFAULT_MAX_SHARD,
    DEFAULT_SHARD_STATE_BUDGET_BYTES,
    ShardTask,
    execute_cached,
    execute_shards,
    finished_times_or_raise,
    merge_shard_results,
    plan_shards,
    run_shard,
    run_sharded,
)

__all__ = [
    "default_workers",
    "parallel_map",
    "pool_chunk_size",
    "DEFAULT_MAX_SHARD",
    "DEFAULT_SHARD_STATE_BUDGET_BYTES",
    "ShardTask",
    "execute_cached",
    "execute_shards",
    "finished_times_or_raise",
    "merge_shard_results",
    "plan_shards",
    "run_shard",
    "run_sharded",
]
