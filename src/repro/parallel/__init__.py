"""Parallel execution substrate: pools and R-axis sharding."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "pool": ["default_workers", "parallel_map", "pool_chunk_size"],
        "sharding": [
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
        ],
    },
)
