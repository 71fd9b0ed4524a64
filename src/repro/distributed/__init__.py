"""repro.distributed — broker/worker shard queue for multi-host execution.

PR 3's sharded execution fans an engine invocation's R axis over
worker *processes* on one host; this package extends the same shard
task unit (rule + topology + spawned seed — see
:class:`repro.parallel.ShardTask`) across machine boundaries:

* :mod:`~repro.distributed.wire` — a versioned, canonical JSON
  encoding of shard tasks and results (replacing the pickle-only pool
  path) that names each graph by content digest and ships its CSR once
  per job, plus the framed TCP protocol;
* :mod:`~repro.distributed.broker` — an asyncio queue holding the
  shard ledger (pending/leased/done), with lease timeouts, heartbeat
  renewal and requeue-on-dead-worker;
* :mod:`~repro.distributed.worker` — the lease/execute/stream-back
  loop around :func:`repro.parallel.run_shard`;
* :mod:`~repro.distributed.client` — job submission and streamed
  result collection, the broker tier of
  :func:`repro.parallel.execute_cached`;
* :mod:`~repro.distributed.cache` — a content-addressed result store
  keyed by the canonical task encoding, and the only checkpoint a run
  needs.

Determinism contract: the shard plan and per-shard spawned seeds are
computed before any transport is involved, so ``run_sharded`` with an
``endpoint`` (also :meth:`repro.engine.SpreadEngine.run_distributed`
and the CLI's ``--endpoint``) returns results bit-for-bit identical to
:meth:`repro.engine.SpreadEngine.run_sharded` at any worker count,
arrival order, or mid-run worker death.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "broker": ["Broker", "ShardLedger", "ShardRecord"],
        "cache": [
            "CACHE_ENV_VAR",
            "CACHE_MAX_BYTES_ENV_VAR",
            "ResultCache",
            "resolve_cache",
        ],
        "client": ["BrokerUnavailable", "DistributedError", "broker_status"],
        "worker": ["run_worker"],
        "wire": [
            "WIRE_VERSION",
            "GraphCache",
            "WireDecodeError",
            "attach_trace",
            "canonical_bytes",
            "decode_result",
            "decode_task",
            "encode_result",
            "encode_task",
            "graph_blobs",
            "parse_endpoint",
            "result_envelope_error",
            "task_key",
        ],
    },
)
