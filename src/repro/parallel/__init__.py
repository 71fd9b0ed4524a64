"""Parallel execution substrate: pools, batching, and R-axis sharding."""

from .batch import (
    DEFAULT_STATE_BUDGET_BYTES,
    plan_batches,
    plan_batches_for,
    run_batched,
)
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
    "DEFAULT_STATE_BUDGET_BYTES",
    "plan_batches",
    "plan_batches_for",
    "run_batched",
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
