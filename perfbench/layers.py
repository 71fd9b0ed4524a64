"""Which public callables each layer metric wraps, and how metrics are read.

:func:`instrument` installs a :class:`~tracer.Tracer`'s wrappers for
the named layer groups; :func:`layer_metrics` turns a finished tracer
into the ``<module>.<metric>`` per-layer metrics the benchmark reports.
Layers a workload never enters read 0.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from tracer import BOOKKEEPING, Tracer

#: Frame types whose count depends on timing (idle polls, lease
#: renewals), so ``wire.frames`` leaves them out to stay exact.
POLLING_FRAMES = ("lease", "heartbeat")

GROUPS = ("kernel", "dynamics", "parallel", "wire")


class Instrumentation:
    """A tracer plus the objects its hooks collected during a traced pass."""

    def __init__(self, groups=GROUPS) -> None:
        self.tracer = Tracer()
        self.sequences: dict[int, object] = {}
        self.shard_metas: list[dict] = []
        self._install(set(groups))

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.restore()

    # -- installation ---------------------------------------------------
    def _install(self, groups: set) -> None:
        if "kernel" in groups:
            self._install_kernel()
        if "dynamics" in groups:
            self._install_dynamics()
        if "parallel" in groups:
            self._install_parallel()
        if "wire" in groups:
            self._install_wire()

    def _install_kernel(self) -> None:
        from repro.core import branching
        from repro.engine import completion
        from repro.engine.engine import SpreadEngine
        from repro.graphs.graph import Graph
        from repro.kernels import dispatch

        t = self.tracer

        def timed_resolve(original):
            # The engine drives whatever step the dispatcher binds (the
            # rule's numpy step, or a compiled stepper), so the step is
            # wrapped on the binding rather than on one rule class.
            def resolve(rule, **kwargs):
                binding = original(rule, **kwargs)
                step = binding.step

                def timed_step(graph, state, alive, rng):
                    with t.span("engine.step"):
                        nxt = step(graph, state, alive, rng)
                    with t.span(BOOKKEEPING):
                        t.add("engine.alive_run_rounds", int(alive.sum()))
                        t.add("engine.run_rounds", int(alive.shape[0]))
                    return nxt

                return dataclasses.replace(binding, step=timed_step)

            return resolve

        t.replace(dispatch, "resolve", timed_resolve)
        t.patch(
            SpreadEngine,
            "run",
            "engine.run",
            after=lambda res, *a, **k: t.add("engine.rounds", int(res.rounds_run)),
        )
        for cls in (completion.AllVertices, completion.AllActive, completion.TargetHit):
            t.patch(cls, "done", "engine.done")
        for cls in (branching.FixedBranching, branching.BernoulliBranching):
            t.patch(cls, "draw_counts", "core.draw_counts")
        t.patch(
            Graph,
            "sample_neighbors",
            "graphs.sample_neighbors",
            after=lambda res, graph, vertices, *a, **k: t.add(
                "graphs.neighbor_draws", len(vertices)
            ),
        )

    def _install_dynamics(self) -> None:
        from repro.adversary import policies
        from repro.adversary import sequence as adversary_sequence
        from repro.adversary.state import MutableTopology
        from repro.dynamics import providers
        from repro.dynamics.sequence import GraphSequence
        from repro.graphs.graph import Graph

        t = self.tracer

        def remember(result, seq, *args, **kwargs):
            self.sequences.setdefault(id(seq), seq)

        t.patch(GraphSequence, "graph_at", "dynamics.graph_at", after=remember)
        for module in (adversary_sequence, providers):
            t.patch(module, "advance_swap_state", "dynamics.swap")
        t.patch(Graph, "__init__", "graphs.csr_build")
        for owner, name in (
            (Graph, "is_connected"),
            (Graph, "bfs_distances"),
            (MutableTopology, "connected"),
        ):
            t.patch(owner, name, "graphs.connectivity")
        t.patch(adversary_sequence.AdversarialSequence, "observe", "adversary.observe")
        for cls in vars(policies).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, policies.AdversaryPolicy)
                and "adapt" in vars(cls)
            ):
                t.patch(cls, "adapt", "adversary.adapt")

    def _install_parallel(self) -> None:
        from repro.graphs.graph import Graph, SharedGraph
        from repro.parallel import sharding

        t = self.tracer
        t.patch(
            sharding,
            "plan_shards",
            "parallel.plan",
            after=lambda plan, *a, **k: t.add("parallel.shards", len(plan)),
        )
        t.patch(sharding, "execute_shards", "parallel.execute")
        t.patch(
            sharding,
            "merge_shard_results",
            "parallel.merge",
            after=lambda res, *a, **k: self.shard_metas.append(res.meta or {}),
        )
        t.patch(Graph, "to_shared", "parallel.shm_export")
        for name in ("unlink", "close"):
            t.patch(SharedGraph, name, "parallel.shm_export")

    def _install_wire(self) -> None:
        from repro.distributed import cache, client, worker
        from repro.distributed.wire import canonical_bytes

        t = self.tracer

        def count_frame(result, sock, obj, **kwargs):
            if obj.get("type") not in POLLING_FRAMES:
                t.add("wire.frames", 1)

        t.patch(
            client,
            "encode_task",
            "wire.encode_task",
            after=lambda obj, *a: t.add("wire.task_bytes", len(canonical_bytes(obj))),
        )
        t.patch(client, "task_key", "cache.key")
        t.patch(client, "decode_result", "wire.decode_result")
        t.patch(cache, "decode_result", "wire.decode_result")
        t.patch(worker, "decode_task", "wire.decode_task")
        t.patch(
            worker,
            "encode_result",
            "wire.encode_result",
            after=lambda obj, *a: t.add("wire.result_bytes", len(canonical_bytes(obj))),
        )
        for module in (client, worker):
            t.patch(module, "send_frame", None, after=count_frame)
        t.patch(cache.ResultCache, "put", "cache.put")
        t.patch(cache.ResultCache, "get", "cache.get")


def _dispatch_overhead(execute_s: float, metas: list[dict]) -> float:
    """``execute_shards`` wall minus the busiest worker's summed shard walls."""
    per_pid: dict[int, float] = defaultdict(float)
    for meta in metas:
        for shard in meta.get("shards", ()):
            per_pid[shard["pid"]] += shard["wall_s"]
    if not per_pid or execute_s == 0.0:
        return 0.0
    return execute_s - max(per_pid.values())


def layer_metrics(main: Instrumentation, driver: Instrumentation | None = None) -> dict:
    """Per-layer metrics of a traced pass.

    ``main`` supplies every layer; when given, ``driver`` (a pass
    traced in the parallel configuration with only the driver-side
    layers installed) supplies the ``parallel.*`` metrics instead.
    """
    t = main.tracer
    p = (driver or main).tracer
    total, own, calls, counts = t.total, t.self_time, t.calls, t.counts
    draws = counts["graphs.neighbor_draws"]
    run_rounds = counts["engine.run_rounds"]
    hits = sum(s.cache_info["hits"] for s in main.sequences.values())
    misses = sum(s.cache_info["misses"] for s in main.sequences.values())
    execute_s = p.total.get("parallel.execute", 0.0)
    metas = (driver or main).shard_metas
    skews = [m["skew"] for m in metas if m.get("skew") is not None]
    return {
        "engine.step_s": total.get("engine.step", 0.0),
        "engine.step_self_s": own.get("engine.step", 0.0),
        "graphs.sample_neighbors_s": total.get("graphs.sample_neighbors", 0.0),
        "graphs.neighbor_draws": draws,
        "graphs.ns_per_draw": (
            total["graphs.sample_neighbors"] / draws * 1e9 if draws else 0.0
        ),
        "core.draw_counts_s": total.get("core.draw_counts", 0.0),
        "engine.loop_self_s": own.get("engine.run", 0.0),
        "engine.done_s": total.get("engine.done", 0.0),
        "engine.rounds": counts["engine.rounds"],
        "engine.alive_frac": (
            counts["engine.alive_run_rounds"] / run_rounds if run_rounds else 0.0
        ),
        "dynamics.graph_at_s": total.get("dynamics.graph_at", 0.0),
        "dynamics.snapshots": misses,
        "dynamics.snapshot_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dynamics.swap_s": total.get("dynamics.swap", 0.0),
        "graphs.csr_build_s": total.get("graphs.csr_build", 0.0),
        "graphs.csr_builds": calls["graphs.csr_build"],
        "graphs.connectivity_s": total.get("graphs.connectivity", 0.0),
        "graphs.connectivity_checks": calls["graphs.connectivity"],
        "adversary.observe_s": total.get("adversary.observe", 0.0),
        "adversary.adapt_s": total.get("adversary.adapt", 0.0),
        "parallel.plan_s": p.total.get("parallel.plan", 0.0),
        "parallel.merge_s": p.total.get("parallel.merge", 0.0),
        "parallel.shards": p.counts["parallel.shards"],
        "parallel.shm_export_s": p.total.get("parallel.shm_export", 0.0),
        "parallel.execute_s": execute_s,
        "parallel.dispatch_overhead_s": _dispatch_overhead(execute_s, metas),
        "parallel.shard_skew": max(skews) if skews else 0.0,
        "wire.encode_task_s": total.get("wire.encode_task", 0.0),
        "wire.decode_task_s": total.get("wire.decode_task", 0.0),
        "wire.encode_result_s": total.get("wire.encode_result", 0.0),
        "wire.decode_result_s": total.get("wire.decode_result", 0.0),
        "wire.task_bytes": counts["wire.task_bytes"],
        "wire.result_bytes": counts["wire.result_bytes"],
        "wire.frames": counts["wire.frames"],
        "cache.key_s": total.get("cache.key", 0.0),
        "cache.put_s": total.get("cache.put", 0.0),
        "cache.get_s": total.get("cache.get", 0.0),
        # Read from the broker and the cache, not from spans: workloads
        # with a broker overwrite these.
        "distributed.queue_wait_s_p50": 0.0,
        "distributed.exec_s_p50": 0.0,
        "distributed.retries": 0,
        "cache.hit_ratio_cold": 0.0,
        "cache.hit_ratio_warm": 0.0,
        "cache.warm_s": 0.0,
    }
