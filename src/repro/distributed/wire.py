"""Versioned wire format for distributed shard execution.

Everything a :class:`~repro.parallel.ShardTask` carries — the spread
rule and its branching policy, the topology (a static graph or a
seeded graph-sequence spec), the completion criterion, the initial
state array, and the shard's spawned :class:`numpy.random.SeedSequence`
— is encoded into plain JSON-able dictionaries, and likewise for
:class:`~repro.engine.SpreadResult`.  The pickle-only path of the
in-process pool is thereby replaced by a format that

* is **versioned** (:data:`WIRE_VERSION` travels in every task/result
  and decoding rejects unknown versions instead of mis-parsing),
* is **canonical** (:func:`canonical_bytes` serialises with sorted
  keys and fixed separators, so the byte encoding of a task is a pure
  function of its content — the substrate of the content-addressed
  result cache, :func:`task_key`), and
* crosses **machine boundaries** (no pickled code objects; rules and
  sequences are reconstructed from small named specs through the same
  registry of classes the in-process engine uses).

A task names its topology graph — a static graph, or the base of a
sequence — by a ``graph-ref``: the graph's content digest
(:attr:`repro.graphs.Graph.digest`) plus ``n``, ``m`` and its name.
The CSR itself travels once per job, as a blob in the submit frame's
``graphs`` map (:func:`graph_blobs`); a decoder resolves refs through a
:class:`GraphCache`, which checks each blob against its digest before
keeping the decoded graph.  Boolean arrays (a task's ``state``, a
result's ``final_state``) travel packed eight bits per byte.

Replay semantics for graph sequences: a sequence is shipped as its
constructor spec plus its master seed (entropy, spawn key, pool size).
``graph_at(t)`` draws the round streams by spawning children
``0, 1, 2, ...`` of the master, so a freshly decoded sequence replays
the identical topology realisation regardless of how far the sender's
copy had already advanced.

The module also owns the length-prefixed JSON framing used by the
broker, worker and client (blocking-socket and asyncio variants), so
the three speak one protocol by construction.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import math
import struct
import time
from collections import OrderedDict

import numpy as np

from ..core.branching import BernoulliBranching, FixedBranching
from ..engine.completion import AllActive, AllVertices, TargetHit
from ..engine.engine import SpreadResult, StaticTopology
from ..engine.rules import (
    BipsRule,
    CobraRule,
    PullRule,
    PushPullRule,
    PushRule,
    WalkRule,
)
from ..graphs.graph import Graph, SharedGraph
from ..parallel.sharding import ShardTask
from ..resilience.faults import InjectedFault, active_fault_plan
from ..telemetry import get_telemetry

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "WireDecodeError",
    "GraphCache",
    "attach_trace",
    "encode_task",
    "decode_task",
    "graph_blobs",
    "encode_result",
    "decode_result",
    "result_envelope_error",
    "canonical_bytes",
    "task_key",
    "parse_endpoint",
    "send_frame",
    "recv_frame",
    "read_frame",
    "write_frame",
]

#: Format version stamped into every encoded task and result.  Bump it
#: whenever the encoding changes shape; decoders reject other versions,
#: and the version participates in :func:`task_key`, so a bump also
#: invalidates every cached result.
WIRE_VERSION = 2

#: Upper bound on one framed message (guards against a corrupt or
#: hostile length prefix allocating gigabytes).
MAX_FRAME_BYTES = 1 << 30

#: Decoded graphs one :class:`GraphCache` keeps, least recently used
#: out first.
_GRAPH_CACHE_SIZE = 4


class WireDecodeError(ValueError):
    """A frame or message failed to decode.

    Wraps the raw ``KeyError``/``ValueError``/``json.JSONDecodeError``
    with what a broker/worker log actually needs: which *kind* of
    message was being decoded, the offending key (when a required field
    was missing or malformed), and the frame length (when the failure
    happened at the framing layer).
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str | None = None,
        key: str | None = None,
        frame_length: int | None = None,
    ):
        details = []
        if kind is not None:
            details.append(f"kind={kind}")
        if key is not None:
            details.append(f"key={key!r}")
        if frame_length is not None:
            details.append(f"frame_length={frame_length}")
        suffix = f" ({', '.join(details)})" if details else ""
        super().__init__(message + suffix)
        self.kind = kind
        self.key = key
        self.frame_length = frame_length


# ----------------------------------------------------------------------
# Scalars and arrays
# ----------------------------------------------------------------------
def _encode_array(arr: np.ndarray) -> dict:
    """Encode an ndarray as dtype + shape + base64 of its C-order bytes.

    A boolean array's bytes are its bits, packed eight per byte.
    """
    arr = np.ascontiguousarray(arr)
    raw = np.packbits(arr, axis=None) if arr.dtype == np.bool_ else arr
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(raw.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    """Rebuild an ndarray from :func:`_encode_array` output (owned copy).

    Packed booleans must fill exactly the bytes their shape needs.
    """
    raw = base64.b64decode(obj["data"])
    dtype = np.dtype(obj["dtype"])
    shape = [int(s) for s in obj["shape"]]
    if dtype == np.bool_:
        size = math.prod(shape)
        if size < 0 or len(raw) != -(-size // 8):
            raise ValueError(
                f"{len(raw)} packed bytes do not hold a {shape} boolean array"
            )
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=size)
        return bits.view(np.bool_).reshape(shape)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _maybe_array(obj: dict | None) -> np.ndarray | None:
    return None if obj is None else _decode_array(obj)


def _encode_seed(seed: np.random.SeedSequence) -> dict:
    """Encode a SeedSequence as entropy + spawn key + pool size.

    The spawn-children counter is deliberately dropped: generators are
    built from the sequence itself, and graph sequences replay their
    round streams by spawning children from index 0, so a decoded seed
    must always start with a fresh counter.
    """
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = [int(e) for e in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return {
        "entropy": entropy,
        "spawn_key": [int(k) for k in seed.spawn_key],
        "pool_size": int(seed.pool_size),
    }


def _decode_seed(obj: dict) -> np.random.SeedSequence:
    entropy = obj["entropy"]
    if isinstance(entropy, list):
        entropy = [int(e) for e in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return np.random.SeedSequence(
        entropy,
        spawn_key=tuple(int(k) for k in obj["spawn_key"]),
        pool_size=int(obj["pool_size"]),
    )


# ----------------------------------------------------------------------
# Branching policies, rules, completion criteria
# ----------------------------------------------------------------------
def _encode_policy(policy) -> dict:
    if isinstance(policy, FixedBranching):
        return {"kind": "fixed", "b": int(policy.b)}
    if isinstance(policy, BernoulliBranching):
        return {"kind": "bernoulli", "rho": float(policy.rho)}
    raise TypeError(
        f"branching policy {type(policy).__name__} is not wire-encodable; "
        "distributed execution supports FixedBranching and BernoulliBranching"
    )


def _decode_policy(obj: dict):
    kind = obj["kind"]
    if kind == "fixed":
        return FixedBranching(int(obj["b"]))
    if kind == "bernoulli":
        return BernoulliBranching(float(obj["rho"]))
    raise ValueError(f"unknown branching policy kind {kind!r}")


def _encode_rule(rule) -> dict:
    if isinstance(rule, CobraRule):
        return {
            "kind": "cobra",
            "policy": _encode_policy(rule.policy),
            "lazy": bool(rule.lazy),
        }
    if isinstance(rule, BipsRule):
        return {
            "kind": "bips",
            "policy": _encode_policy(rule.policy),
            "source": int(rule.source),
            "lazy": bool(rule.lazy),
        }
    if isinstance(rule, WalkRule):
        return {"kind": "walk", "k": int(rule.k), "lazy": bool(rule.lazy)}
    if isinstance(rule, PushRule):
        return {"kind": "push", "fanout": int(rule.fanout)}
    if isinstance(rule, PushPullRule):
        return {"kind": "push-pull"}
    if isinstance(rule, PullRule):
        return {"kind": "pull"}
    raise TypeError(f"spread rule {type(rule).__name__} is not wire-encodable")


def _decode_rule(obj: dict):
    kind = obj["kind"]
    if kind == "cobra":
        return CobraRule(_decode_policy(obj["policy"]), lazy=obj["lazy"])
    if kind == "bips":
        # A peer from before BIPS had one layout may still name it.
        if obj.get("discipline", "batch") != "batch":
            raise ValueError(f"unknown BIPS discipline {obj['discipline']!r}")
        return BipsRule(
            _decode_policy(obj["policy"]), int(obj["source"]), lazy=obj["lazy"]
        )
    if kind == "walk":
        return WalkRule(int(obj["k"]), lazy=obj["lazy"])
    if kind == "push":
        return PushRule(int(obj["fanout"]))
    if kind == "push-pull":
        return PushPullRule()
    if kind == "pull":
        return PullRule()
    raise ValueError(f"unknown spread rule kind {kind!r}")


def _encode_completion(criterion) -> dict:
    if isinstance(criterion, AllVertices):
        return {"kind": "all-vertices"}
    if isinstance(criterion, AllActive):
        return {"kind": "all-active"}
    if isinstance(criterion, TargetHit):
        return {"kind": "target-hit", "target": int(criterion.target)}
    raise TypeError(
        f"completion criterion {type(criterion).__name__} is not wire-encodable"
    )


def _decode_completion(obj: dict):
    kind = obj["kind"]
    if kind == "all-vertices":
        return AllVertices()
    if kind == "all-active":
        return AllActive()
    if kind == "target-hit":
        return TargetHit(int(obj["target"]))
    raise ValueError(f"unknown completion kind {kind!r}")


# ----------------------------------------------------------------------
# Adversary policies (repro.adversary)
# ----------------------------------------------------------------------
def _encode_adversary(policy) -> dict:
    """Encode an adversary policy as its pristine constructor spec.

    Replay-derived state (churn clocks, growth trackers) is
    deliberately dropped: the wire ships a *replay spec*, and the
    remote engine regenerates the identical digest stream that
    rebuilds that state round by round.
    """
    from ..adversary.policies import (
        AdaptiveRRIPolicy,
        GreedyCutAdversary,
        IsolatingChurnAdversary,
        MovingSourceAdversary,
    )

    if isinstance(policy, GreedyCutAdversary):
        return {
            "kind": "greedy-cut",
            "budget": int(policy.budget),
            "keep_connected": bool(policy.keep_connected),
        }
    if isinstance(policy, IsolatingChurnAdversary):
        return {
            "kind": "isolating-churn",
            "budget": int(policy.budget),
            "downtime": int(policy.downtime),
            "protected": [int(p) for p in policy.protected],
            "keep_connected": bool(policy.keep_connected),
            "initially_out": [int(p) for p in policy.initially_out],
        }
    if isinstance(policy, MovingSourceAdversary):
        return {
            "kind": "moving-source",
            "source": int(policy.source),
            "budget": int(policy.budget),
            "trigger": float(policy.trigger),
            "keep_connected": bool(policy.keep_connected),
        }
    if isinstance(policy, AdaptiveRRIPolicy):
        return {
            "kind": "adaptive-rri",
            "burst_swaps": int(policy.burst_swaps),
            "growth_threshold": float(policy.growth_threshold),
            "keep_connected": bool(policy.keep_connected),
            "max_retries": int(policy.max_retries),
        }
    raise TypeError(
        f"adversary policy {type(policy).__name__} is not wire-encodable"
    )


def _decode_adversary(obj: dict):
    from ..adversary.policies import (
        AdaptiveRRIPolicy,
        GreedyCutAdversary,
        IsolatingChurnAdversary,
        MovingSourceAdversary,
    )

    kind = obj["kind"]
    if kind == "greedy-cut":
        return GreedyCutAdversary(
            int(obj["budget"]), keep_connected=obj["keep_connected"]
        )
    if kind == "isolating-churn":
        return IsolatingChurnAdversary(
            int(obj["budget"]),
            downtime=int(obj["downtime"]),
            protected=tuple(int(p) for p in obj["protected"]),
            keep_connected=obj["keep_connected"],
            initially_out=tuple(int(p) for p in obj["initially_out"]),
        )
    if kind == "moving-source":
        return MovingSourceAdversary(
            int(obj["source"]),
            int(obj["budget"]),
            trigger=float(obj["trigger"]),
            keep_connected=obj["keep_connected"],
        )
    if kind == "adaptive-rri":
        return AdaptiveRRIPolicy(
            int(obj["burst_swaps"]),
            growth_threshold=float(obj["growth_threshold"]),
            keep_connected=obj["keep_connected"],
            max_retries=int(obj["max_retries"]),
        )
    raise ValueError(f"unknown adversary policy kind {kind!r}")


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
def _encode_graph(graph: Graph) -> dict:
    """The CSR blob of a graph, as a submit frame's ``graphs`` map holds it."""
    return {
        "n": int(graph.n),
        "m": int(graph.m),
        "indptr": _encode_array(graph.indptr),
        "indices": _encode_array(graph.indices),
    }


def _decode_graph(obj: dict, name: str) -> Graph:
    """Rebuild a graph from the sender's CSR blob, checking it first.

    :meth:`Graph._from_csr` trusts its input, and a malformed CSR would
    otherwise run as a different graph (numpy wraps a negative index)
    or fail deep inside a kernel, so the arrays must be 1-D integers
    describing ``n`` vertices and ``m`` undirected edges.
    """
    n, m = int(obj["n"]), int(obj["m"])
    indptr = _decode_array(obj["indptr"])
    indices = _decode_array(obj["indices"])
    for key, arr in (("indptr", indptr), ("indices", indices)):
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"graph {key} must be a 1-D integer array")
    if n < 0 or len(indptr) != n + 1 or indptr[0] != 0:
        raise ValueError("graph indptr must hold n + 1 offsets starting at 0")
    if np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("graph indptr must be non-decreasing")
    if not indptr[-1] == len(indices) == 2 * m:
        raise ValueError("graph indptr[-1], len(indices) and 2m must agree")
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("graph indices must lie in [0, n)")
    indptr = indptr.astype(np.int64, copy=False)
    indices = indices.astype(np.int64, copy=False)
    return Graph._from_csr(n, m, indptr, indices, np.diff(indptr), name)


def _encode_graph_ref(graph: Graph) -> dict:
    return {
        "kind": "graph-ref",
        "digest": graph.digest,
        "n": int(graph.n),
        "m": int(graph.m),
        "name": graph.name,
    }


def _shipped_graph(topology) -> Graph:
    """The graph a topology's encoding names: the graph itself or its base."""
    if isinstance(topology, Graph):
        return topology
    if isinstance(topology, SharedGraph):
        raise TypeError(
            "a SharedGraph handle is process-local and cannot cross machine "
            "boundaries; ship the underlying Graph instead"
        )
    return topology.base


def graph_blobs(tasks) -> dict[str, dict]:
    """The CSR blob of every graph the tasks name, by digest.

    The submit frame's ``graphs`` map: each distinct graph is encoded
    once, however many tasks name it.
    """
    blobs: dict[str, dict] = {}
    for task in tasks:
        graph = _shipped_graph(task.topology)
        if graph.digest not in blobs:
            blobs[graph.digest] = _encode_graph(graph)
    return blobs


class GraphCache:
    """Decoded topology graphs by digest: a small LRU filled on demand.

    A ref this cache lacks asks ``fetch(digest)`` for the graph's blob
    (None when the peer has none, which fails the decode).  The blob's
    CSR is checked, and it must hash to the digest it was asked for,
    before the decoded graph is kept; a ref must also agree with the
    graph on ``n`` and ``m``.  A worker keeps one cache for its
    lifetime, so a graph crosses the wire once per worker while it
    stays among the :data:`_GRAPH_CACHE_SIZE` most recently used.
    """

    def __init__(self, fetch) -> None:
        self.fetch = fetch
        self._graphs: OrderedDict[str, Graph] = OrderedDict()

    def resolve(self, ref: dict) -> Graph:
        """The graph a ``graph-ref`` names, under the ref's name."""
        digest = ref["digest"]
        graph = self._graphs.get(digest)
        if graph is not None:
            self._graphs.move_to_end(digest)
        else:
            blob = self.fetch(digest)
            if blob is None:
                raise ValueError(f"unknown graph digest {digest!r}")
            graph = _decode_graph(blob, ref["name"])
            if graph.digest != digest:
                raise ValueError(f"graph blob does not hash to its digest {digest!r}")
            self._graphs[digest] = graph
            if len(self._graphs) > _GRAPH_CACHE_SIZE:
                self._graphs.popitem(last=False)
        if (graph.n, graph.m) != (ref["n"], ref["m"]):
            raise ValueError(
                f"graph ref n={ref['n']!r}, m={ref['m']!r} does not match "
                f"graph {digest!r} (n={graph.n}, m={graph.m})"
            )
        if graph.name != ref["name"]:
            renamed = Graph._from_csr(
                graph.n, graph.m, graph.indptr, graph.indices, graph.degrees,
                ref["name"],
            )
            renamed._digest = digest
            graph = renamed
        return graph


def _encode_topology(topology) -> dict:
    from ..adversary.sequence import AdversarialSequence
    from ..dynamics.providers import (
        ChurnSequence,
        EdgeMarkovianSequence,
        RewiringSequence,
    )
    from ..dynamics.sequence import FrozenSequence

    if isinstance(topology, (Graph, StaticTopology, SharedGraph)):
        return _encode_graph_ref(_shipped_graph(topology))
    if isinstance(topology, FrozenSequence):
        return {"kind": "frozen", "base": _encode_graph_ref(topology.base)}
    if isinstance(topology, RewiringSequence):
        return {
            "kind": "rewiring",
            "base": _encode_graph_ref(topology.base),
            "swaps": int(topology.swaps_per_round),
            "keep_connected": bool(topology.keep_connected),
            "max_retries": int(topology.max_retries),
            "seed": _encode_seed(topology._master),
        }
    if isinstance(topology, EdgeMarkovianSequence):
        return {
            "kind": "edge-markovian",
            "base": _encode_graph_ref(topology.base),
            "birth": float(topology.birth),
            "death": float(topology.death),
            "seed": _encode_seed(topology._master),
        }
    if isinstance(topology, ChurnSequence):
        return {
            "kind": "churn",
            "base": _encode_graph_ref(topology.base),
            "leave": float(topology.leave),
            "rejoin": float(topology.rejoin),
            "protected": np.nonzero(topology._protected)[0].tolist(),
            "seed": _encode_seed(topology._master),
        }
    if isinstance(topology, AdversarialSequence):
        # A seeded replay spec: constructor parameters + master seed
        # (spawn counter dropped by _encode_seed) + the adversary's
        # pristine spec.  The remote engine re-delivers the identical
        # observation stream, so the decoded sequence realises the
        # identical adversarial topology — however far the sender's
        # copy had already advanced.
        return {
            "kind": "adversarial",
            "base": _encode_graph_ref(topology.base),
            "adversary": _encode_adversary(topology.adversary),
            "swaps": int(topology.swaps_per_round),
            "keep_connected": bool(topology.keep_connected),
            "max_retries": int(topology.max_retries),
            "seed": _encode_seed(topology._master),
        }
    raise TypeError(
        f"topology {type(topology).__name__} is not wire-encodable; "
        "supported: Graph, FrozenSequence, RewiringSequence, "
        "EdgeMarkovianSequence, ChurnSequence, AdversarialSequence"
    )


def _decode_topology(obj: dict, graphs: GraphCache):
    from ..adversary.sequence import AdversarialSequence
    from ..dynamics.providers import (
        ChurnSequence,
        EdgeMarkovianSequence,
        RewiringSequence,
    )
    from ..dynamics.sequence import FrozenSequence

    kind = obj["kind"]
    if kind == "graph-ref":
        return graphs.resolve(obj)
    if kind == "frozen":
        return FrozenSequence(graphs.resolve(obj["base"]))
    if kind == "rewiring":
        return RewiringSequence(
            graphs.resolve(obj["base"]),
            int(obj["swaps"]),
            seed=_decode_seed(obj["seed"]),
            keep_connected=obj["keep_connected"],
            max_retries=int(obj["max_retries"]),
        )
    if kind == "edge-markovian":
        return EdgeMarkovianSequence(
            graphs.resolve(obj["base"]),
            float(obj["birth"]),
            float(obj["death"]),
            seed=_decode_seed(obj["seed"]),
        )
    if kind == "churn":
        return ChurnSequence(
            graphs.resolve(obj["base"]),
            float(obj["leave"]),
            float(obj["rejoin"]),
            seed=_decode_seed(obj["seed"]),
            protected=tuple(int(v) for v in obj["protected"]),
        )
    if kind == "adversarial":
        return AdversarialSequence(
            graphs.resolve(obj["base"]),
            _decode_adversary(obj["adversary"]),
            _decode_seed(obj["seed"]),
            swaps_per_round=int(obj["swaps"]),
            keep_connected=obj["keep_connected"],
            max_retries=int(obj["max_retries"]),
        )
    raise ValueError(f"unknown topology kind {kind!r}")


# ----------------------------------------------------------------------
# Tasks and results
# ----------------------------------------------------------------------
def encode_task(task: ShardTask) -> dict:
    """Encode a :class:`~repro.parallel.ShardTask` as a JSON-able dict.

    The encoding is complete: :func:`decode_task` on another machine
    rebuilds a task whose execution by
    :func:`repro.parallel.run_shard` is bit-for-bit identical to
    running the original in-process.  No kernel choice is encoded: the
    worker's engine picks its own, bit-identically (see
    :func:`repro.kernels.dispatch.resolve`).
    """
    return {
        "v": WIRE_VERSION,
        "kind": "task",
        "rule": _encode_rule(task.rule),
        "topology": _encode_topology(task.topology),
        "completion": _encode_completion(task.completion),
        "state": _encode_array(task.state),
        "seed": _encode_seed(task.seed),
        "max_rounds": None if task.max_rounds is None else int(task.max_rounds),
        "track_hits": bool(task.track_hits),
        "record_sizes": bool(task.record_sizes),
        "record_visited": bool(task.record_visited),
    }


def attach_trace(frame: dict, context) -> dict:
    """Attach the optional ``trace`` key to an outbound frame in place.

    ``context`` is a :class:`~repro.telemetry.TraceContext` (or an
    already-encoded wire dict, as the broker relays on lease replies);
    ``None`` leaves the frame untouched, so an untraced frame encodes
    byte-identically to one from a build without the key.  Returns the
    frame for chaining.
    """
    if context is None:
        return frame
    wire = context.to_wire() if hasattr(context, "to_wire") else dict(context)
    if wire:
        frame["trace"] = wire
    return frame


def _check_version(obj: dict, kind: str) -> None:
    if obj.get("v") != WIRE_VERSION:
        raise ValueError(
            f"wire version mismatch: got {obj.get('v')!r}, "
            f"this build speaks version {WIRE_VERSION}"
        )
    if obj.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} message, got {obj.get('kind')!r}")


def _wrap_decode_error(kind: str, exc: BaseException) -> WireDecodeError:
    """Build the :class:`WireDecodeError` for a failed *kind* decode."""
    if isinstance(exc, KeyError):
        key = str(exc.args[0]) if exc.args else None
        return WireDecodeError(
            f"malformed {kind} encoding: missing or malformed key",
            kind=kind,
            key=key,
        )
    return WireDecodeError(f"malformed {kind} encoding: {exc}", kind=kind)


def _check_state(rule, state: np.ndarray, n: int) -> None:
    """Refuse a state that is not the array the decoded ``rule`` steps."""
    if isinstance(rule, WalkRule):  # (R, k) positions in [0, n)
        ok = state.dtype == np.int64 and state.ndim == 2 and state.shape[1] == rule.k
        ok = ok and (state.size == 0 or 0 <= state.min() <= state.max() < n)
    else:
        ok = state.dtype == np.bool_ and state.ndim == 2 and state.shape[1] == n
    if not ok:
        raise ValueError(
            f"task state {state.dtype}{list(state.shape)} does not fit "
            f"{type(rule).__name__} on {n} vertices"
        )


def decode_task(obj: dict, graphs: GraphCache) -> ShardTask:
    """Rebuild a :class:`~repro.parallel.ShardTask` from its encoding.

    ``graphs`` resolves the task's graph refs (a worker keeps one
    :class:`GraphCache`; ``GraphCache(graph_blobs(tasks).get)`` decodes
    a job's tasks in one process).

    Raises :class:`WireDecodeError` (never a raw ``KeyError``) when the
    encoding is truncated, corrupted, or from another wire version,
    when a graph ref names a graph ``graphs`` cannot supply or that
    does not match it, and when its state or ``max_rounds`` does not
    fit the task.
    """
    try:
        _check_version(obj, "task")
        rule = _decode_rule(obj["rule"])
        topology = _decode_topology(obj["topology"], graphs)
        state = _decode_array(obj["state"])
        _check_state(rule, state, topology.n)
        max_rounds = obj["max_rounds"]
        if max_rounds is not None and (type(max_rounds) is not int or max_rounds < 0):
            raise ValueError("task max_rounds must be None or a non-negative int")
        return ShardTask(
            rule=rule,
            topology=topology,
            completion=_decode_completion(obj["completion"]),
            state=state,
            seed=_decode_seed(obj["seed"]),
            max_rounds=max_rounds,
            track_hits=obj["track_hits"],
            record_sizes=obj["record_sizes"],
            record_visited=obj["record_visited"],
        )
    except WireDecodeError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise _wrap_decode_error("task", exc) from exc


def encode_result(result: SpreadResult) -> dict:
    """Encode a :class:`~repro.engine.SpreadResult` as a JSON-able dict."""
    return {
        "v": WIRE_VERSION,
        "kind": "result",
        "finish_times": _encode_array(result.finish_times),
        "rounds_run": int(result.rounds_run),
        "final_state": _encode_array(result.final_state),
        "hit_times": (
            None if result.hit_times is None else _encode_array(result.hit_times)
        ),
        "sizes": None if result.sizes is None else _encode_array(result.sizes),
        "visited_counts": (
            None
            if result.visited_counts is None
            else _encode_array(result.visited_counts)
        ),
    }


def decode_result(obj: dict) -> SpreadResult:
    """Rebuild a :class:`~repro.engine.SpreadResult` from its encoding.

    Raises :class:`WireDecodeError` (never a raw ``KeyError``) when the
    encoding is truncated, corrupted, or from another wire version.
    """
    try:
        _check_version(obj, "result")
        return SpreadResult(
            finish_times=_decode_array(obj["finish_times"]),
            rounds_run=int(obj["rounds_run"]),
            final_state=_decode_array(obj["final_state"]),
            hit_times=_maybe_array(obj["hit_times"]),
            sizes=_maybe_array(obj["sizes"]),
            visited_counts=_maybe_array(obj["visited_counts"]),
        )
    except WireDecodeError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise _wrap_decode_error("result", exc) from exc


def result_envelope_error(obj) -> str | None:
    """Cheap structural check of an encoded result; None when it looks sane.

    The broker uses this to reject (and requeue) a result frame that
    would blow up in the client's :func:`decode_result` — without
    paying for a full array decode per shard on the broker's event
    loop.  Returns a human-readable reason string on failure.
    """
    if not isinstance(obj, dict):
        return f"result payload is {type(obj).__name__}, not a dict"
    if obj.get("v") != WIRE_VERSION:
        return f"wire version mismatch: {obj.get('v')!r}"
    if obj.get("kind") != "result":
        return f"not a result message: kind={obj.get('kind')!r}"
    if not isinstance(obj.get("rounds_run"), int):
        return "missing or non-integer rounds_run"
    for field in ("finish_times", "final_state"):
        payload = obj.get(field)
        if not isinstance(payload, dict):
            return f"missing array field {field!r}"
        if not all(k in payload for k in ("dtype", "shape", "data")):
            return f"array field {field!r} lacks dtype/shape/data"
    for field in ("hit_times", "sizes", "visited_counts"):
        payload = obj.get(field, "absent")
        if payload == "absent":
            return f"missing optional-array field {field!r}"
        if payload is not None and not isinstance(payload, dict):
            return f"optional-array field {field!r} is not a dict"
    return None


def canonical_bytes(obj: dict) -> bytes:
    """Serialise a JSON-able object deterministically (sorted keys).

    Two calls on equal objects yield equal bytes, making the output
    suitable for hashing (:func:`task_key`) and for byte-comparison in
    tests.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def task_key(task: "ShardTask | dict") -> str:
    """The content address of a shard task: sha256 of its canonical bytes.

    Accepts either a :class:`~repro.parallel.ShardTask` or an
    already-encoded task dict.  Every input that influences the
    execution outcome — rule, topology, completion, state, seed, round
    cap, recording flags, and the wire version itself — participates,
    so equal keys imply bit-identical results and a format bump
    invalidates old cache entries.  A graph takes part through its
    ref's digest, so the hashed bytes do not grow with the graph.
    """
    obj = task if isinstance(task, dict) else encode_task(task)
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


# ----------------------------------------------------------------------
# Endpoint parsing and message framing
# ----------------------------------------------------------------------
_FRAME_HEADER = struct.Struct(">I")


def parse_endpoint(spec) -> tuple[str, int]:
    """Parse an endpoint spec into ``(host, port)``.

    Accepts ``"host:port"``, a bare ``"port"`` (host defaults to
    ``127.0.0.1``), or an already-split ``(host, port)`` pair.
    """
    if isinstance(spec, (tuple, list)):
        return str(spec[0]), int(spec[1])
    text = str(spec).strip()
    if ":" not in text:
        return "127.0.0.1", int(text)
    host, port = text.rsplit(":", 1)
    return host or "127.0.0.1", int(port)


def _pack(obj: dict) -> bytes:
    payload = json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    return _FRAME_HEADER.pack(len(payload)) + payload


def _faulted_payload(plan, payload: bytes, site: str) -> bytes:
    """Apply the plan's frame fault (if any) to an outbound payload.

    Raises :class:`~repro.resilience.faults.InjectedFault` for a drop
    (the frame never reaches the wire, and the caller sees the same
    ``ConnectionError`` surface a real half-open drop produces);
    returns mutated/duplicated bytes for corrupt/duplicate; sleeps for
    delay.  Only called when a plan is installed.
    """
    kind = plan.frame_fault(site)
    if kind is None:
        return payload
    tel = get_telemetry()
    tel.count("faults.injected")
    if tel.enabled:
        tel.event("faults.frame", fault=kind, site=site)
    if kind == "drop":
        raise InjectedFault("drop", site)
    if kind == "corrupt":
        return plan.corrupt_payload(payload, site)
    if kind == "duplicate":
        return payload + payload
    if kind == "delay":
        time.sleep(plan.delay_s)
    return payload


def send_frame(sock, obj: dict, *, site: str | None = None) -> None:
    """Write one length-prefixed JSON frame to a blocking socket.

    ``site`` names the injection point for fault-injection runs (e.g.
    ``"worker.send"``); with no :class:`~repro.resilience.FaultPlan`
    installed — the production default — the hook is a single ``None``
    check.
    """
    payload = _pack(obj)
    if site is not None:
        plan = active_fault_plan()
        if plan is not None:
            payload = _faulted_payload(plan, payload, site)
    sock.sendall(payload)


def _recv_exact(sock, count: int, *, allow_eof: bool = False) -> bytes | None:
    buf = b""
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            if allow_eof and not buf:
                return None
            raise ConnectionError("connection closed mid-frame")
        buf += chunk
    return buf


def recv_frame(sock) -> dict | None:
    """Read one frame from a blocking socket; None on clean EOF."""
    header = _recv_exact(sock, _FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES")
    payload = _recv_exact(sock, length)
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireDecodeError(
            f"frame payload is not valid JSON: {exc}", frame_length=length
        ) from exc


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream; None on clean EOF."""
    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError("connection closed mid-frame") from exc
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES")
    payload = await reader.readexactly(length)
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireDecodeError(
            f"frame payload is not valid JSON: {exc}", frame_length=length
        ) from exc


async def write_frame(writer: asyncio.StreamWriter, obj: dict) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(_pack(obj))
    await writer.drain()
