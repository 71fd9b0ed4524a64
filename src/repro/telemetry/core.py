"""The structured telemetry core: spans, counters, histograms, registry.

Everything the repo's execution stack reports about itself flows
through one process-local :class:`Telemetry` registry.  Design rules,
in the order they mattered:

* **Never perturb results.**  Instrumentation only reads process
  state (occupancy masks, counts, clocks) — it draws no randomness
  and mutates nothing the engine computes with.  The parity tests in
  ``tests/telemetry`` pin this: full tracing on or off, every
  engine/sharded/distributed output is bit-identical.
* **Disabled means one branch.**  The default sink is
  :data:`~repro.telemetry.sinks.NULL_SINK`; :attr:`Telemetry.enabled`
  is an identity check against it, so hot paths guard with
  ``if tel.enabled:`` and pay nothing else when tracing is off.
* **Deterministic span identity.**  :func:`span_id_from` hashes
  canonical JSON of its parts, and shard spans derive their parts
  from the shard's spawned :class:`~numpy.random.SeedSequence`
  (entropy + spawn key — which encodes the shard index) — so the same
  run produces the same span ids on every machine, worker count, and
  arrival order, and traces from different processes stitch together.

Records are flat JSON-able dicts (see :mod:`repro.telemetry.sinks`
for shapes); ``repro trace summarize`` and
:mod:`repro.telemetry.summarize` consume them.

Environment knobs: ``REPRO_TELEMETRY`` names a JSONL trace path
(empty/``0``/``off`` disables), ``REPRO_TELEMETRY_SAMPLE`` sets the
per-round sampling stride (default 1: every round).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading
import time
from collections import deque

from .sinks import NULL_SINK, JsonlSink

__all__ = [
    "Telemetry",
    "Span",
    "TraceContext",
    "span_id_from",
    "seed_id_parts",
    "format_gauge_key",
    "get_telemetry",
    "configure",
    "configure_from_env",
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_SAMPLE_ENV_VAR",
    "HISTOGRAM_WINDOW",
]

#: Environment variable naming the JSONL trace path (CLI ``--telemetry``
#: overrides it; empty/``0``/``off`` disables).
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Environment variable setting the per-round event sampling stride.
TELEMETRY_SAMPLE_ENV_VAR = "REPRO_TELEMETRY_SAMPLE"

#: Observations a histogram keeps (the most recent ones), so a
#: long-lived traced process holds constant memory per histogram.
HISTOGRAM_WINDOW = 4096


def _canonical_part(part):
    """Coerce one id part into a canonical JSON-able value."""
    if part is None or isinstance(part, (bool, int, str)):
        return part
    if isinstance(part, float):
        return repr(part)
    if isinstance(part, (list, tuple)):
        return [_canonical_part(p) for p in part]
    return str(part)


def span_id_from(*parts) -> str:
    """A deterministic 16-hex-digit span id from canonical ``parts``.

    Equal parts give equal ids on every machine and process — the
    property that lets a sharded run's spans be named before the
    shards are dispatched, and lets traces from worker processes be
    stitched under the parent's span tree.
    """
    payload = json.dumps(
        [_canonical_part(p) for p in parts],
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def seed_id_parts(seed) -> list:
    """Canonical id parts of a :class:`numpy.random.SeedSequence`.

    Entropy plus spawn key: the spawn key of a shard seed ends in the
    shard index (:func:`repro.stats.rng.spawn_seeds` spawns children
    ``0..k-1``), so these parts realise the "(run seed, shard index)"
    half of the deterministic span-id contract; the round index is
    carried by the per-round records nested under the span.
    """
    entropy = getattr(seed, "entropy", None)
    spawn_key = getattr(seed, "spawn_key", ())
    if isinstance(entropy, (list, tuple)):
        entropy = [int(e) for e in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return [entropy, [int(k) for k in spawn_key]]


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The cross-process half of a trace: trace id + parent span id.

    A client installs one around ``run_sharded`` (trace id derived
    deterministically from the master seed via :func:`span_id_from` /
    :func:`seed_id_parts`); it rides submit/lease/complete frames as an
    optional ``trace`` wire key (see
    :func:`repro.distributed.wire.attach_trace` — byte-identical frames
    when absent), and the broker and workers install it so their spans
    parent under the client's span tree.
    """

    #: Deterministic id shared by every record of one stitched trace.
    trace_id: str
    #: Span id remote spans should parent under (None at the root).
    parent_span_id: str | None = None

    def to_wire(self) -> dict:
        """The JSON-able wire form (the optional ``trace`` frame key)."""
        wire = {"id": self.trace_id}
        if self.parent_span_id is not None:
            wire["parent"] = self.parent_span_id
        return wire

    @staticmethod
    def from_wire(obj) -> "TraceContext | None":
        """Decode a wire dict (None / malformed input gives None)."""
        if not isinstance(obj, dict):
            return None
        trace_id = obj.get("id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = obj.get("parent")
        if parent is not None and not isinstance(parent, str):
            parent = None
        return TraceContext(trace_id=trace_id, parent_span_id=parent)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Span:
    """One timed region of a trace, usable as a context manager.

    Spans record wall and CPU durations (``perf_counter`` /
    ``process_time``) and emit ``span-start`` / ``span-end`` records.
    :meth:`annotate` attaches fields that are only known at the end
    (rounds run, shards merged) to the ``span-end`` record.
    """

    __slots__ = (
        "telemetry",
        "name",
        "span_id",
        "parent_id",
        "fields",
        "wall_s",
        "cpu_s",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, telemetry: "Telemetry", name: str, span_id: str, parent_id, fields: dict):
        self.telemetry = telemetry
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.fields = fields
        self.wall_s: float | None = None
        self.cpu_s: float | None = None
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def annotate(self, **fields) -> None:
        """Attach end-of-span fields (merged into the span-end record)."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self.telemetry._enter_span(self)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self.telemetry._record(
            "span-start",
            self.name,
            span=self.span_id,
            parent=self.parent_id,
            fields=dict(self.fields),
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        self.telemetry._exit_span(self)
        fields = dict(self.fields)
        if exc_type is not None:
            fields["error"] = exc_type.__name__
        self.telemetry._record(
            "span-end",
            self.name,
            span=self.span_id,
            parent=self.parent_id,
            wall_s=self.wall_s,
            cpu_s=self.cpu_s,
            fields=fields,
        )


class Telemetry:
    """Process-local registry: a sink plus aggregated counters/histograms.

    Counters and histograms aggregate in memory on every call — they
    are cheap and rare (per round or per shard, never per vertex) and
    feed :meth:`snapshot` even without a sink.  A histogram summarises
    its last :data:`HISTOGRAM_WINDOW` observations.  *Records* (the JSONL
    stream) are only produced when a real sink is configured; hot
    paths should guard bulk instrumentation with :attr:`enabled`.

    ``sample_every`` is the per-round sampling stride: engine round
    events fire only when ``sampled(t)`` is true (span and lifecycle
    records always fire — they are O(shards), not O(rounds)).
    """

    def __init__(self, sink=None, *, sample_every: int = 1) -> None:
        self.sink = NULL_SINK if sink is None else sink
        self.sample_every = max(1, int(sample_every))
        self._counters: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        self._histograms: dict[str, deque[float]] = {}
        self._gauges: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._anon_spans = 0
        self._context: TraceContext | None = None

    # -- state ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True iff a real sink is configured (one identity check)."""
        return self.sink is not NULL_SINK

    def sampled(self, t: int) -> bool:
        """Whether round ``t`` falls on the sampling stride."""
        return t % self.sample_every == 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> str | None:
        """The innermost open span's id in this thread (None outside)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def install_context(self, context: TraceContext | None) -> TraceContext | None:
        """Install (or clear) the process trace context; returns the prior one.

        Restore the returned value in a ``finally`` block.  While a
        context is installed every record carries its trace id, and
        spans opened with no local parent fall back to
        ``context.parent_span_id`` — this is how a remote worker's
        ``shard.run`` span stitches under the client's tree.
        """
        previous = self._context
        self._context = context
        return previous

    def current_context(self) -> TraceContext | None:
        """The context a cross-process hop should carry right now.

        With a context installed, the trace id is preserved and the
        parent advanced to the innermost open span; with only local
        spans open, a fresh context rooted at the outermost span is
        derived; with neither, None (nothing to propagate).
        """
        parent = self.current_span_id()
        context = self._context
        if context is not None:
            return TraceContext(
                trace_id=context.trace_id,
                parent_span_id=parent or context.parent_span_id,
            )
        stack = self._stack()
        if stack:
            return TraceContext(trace_id=stack[0].span_id, parent_span_id=parent)
        return None

    def _enter_span(self, span: Span) -> None:
        self._stack().append(span)

    def _exit_span(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- emission -------------------------------------------------------
    def _record(self, kind: str, name: str, **extra) -> None:
        if not self.enabled:
            return
        record = {"kind": kind, "name": name, "ts": time.time(), "pid": os.getpid()}
        if self._context is not None:
            record["trace"] = self._context.trace_id
        record.update(extra)
        self.sink.write(record)

    def span(self, name: str, *, id_parts=None, **fields) -> Span:
        """Open a span (use as a context manager).

        ``id_parts`` makes the id deterministic via
        :func:`span_id_from`; without them the id derives from the
        parent span and a process-local counter (stable within one
        process, which is all an unseeded caller can promise).
        """
        parent = self.current_span_id()
        if parent is None and self._context is not None:
            parent = self._context.parent_span_id
        if id_parts is not None:
            sid = span_id_from(name, *id_parts)
        else:
            with self._lock:
                self._anon_spans += 1
                sid = span_id_from(name, parent, self._anon_spans)
        return Span(self, name, sid, parent, dict(fields))

    def span_started(
        self, name: str, span_id: str, parent_id=None, trace_id=None, **fields
    ) -> None:
        """Emit a ``span-start`` record with explicit identity.

        For lifecycles that outlive any one call frame (the broker's
        per-job span opens on submit and closes on the terminal state
        transition), where the context-manager :meth:`span` cannot be
        used.  Pair with :meth:`span_finished` on the same ids.
        ``trace_id`` stamps the record for emitters that know the trace
        they belong to without installing a process context (the broker
        serves many concurrent traces from one thread).
        """
        extra = {"span": span_id, "parent": parent_id, "fields": dict(fields)}
        if trace_id is not None:
            extra["trace"] = trace_id
        self._record("span-start", name, **extra)

    def span_finished(
        self,
        name: str,
        span_id: str,
        parent_id=None,
        trace_id=None,
        *,
        wall_s: float | None = None,
        cpu_s: float | None = None,
        **fields,
    ) -> None:
        """Emit the matching ``span-end`` record for :meth:`span_started`."""
        extra = {
            "span": span_id,
            "parent": parent_id,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "fields": dict(fields),
        }
        if trace_id is not None:
            extra["trace"] = trace_id
        self._record("span-end", name, **extra)

    def event(self, name: str, **fields) -> None:
        """Emit one point-in-time record under the current span."""
        self._record("point", name, span=self.current_span_id(), fields=fields)

    def count(self, name: str, value: float = 1, **labels) -> float:
        """Bump a monotonic counter; returns the new total.

        Aggregates even when disabled (so ``repro status`` and job
        summaries can report cache hit/miss counts without a sink);
        emits a ``counter`` record only when enabled.  ``labels``
        distinguish series of the same name, as for :meth:`gauge`.
        """
        key = (name, _label_items(labels))
        with self._lock:
            total = self._counters.get(key, 0) + value
            self._counters[key] = total
        extra = {"span": self.current_span_id(), "value": value, "total": total}
        if labels:
            extra["labels"] = dict(key[1])
        self._record("counter", name, **extra)
        return total

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram (and record it if enabled)."""
        value = float(value)
        with self._lock:
            window = self._histograms.get(name)
            if window is None:
                window = self._histograms[name] = deque(maxlen=HISTOGRAM_WINDOW)
            window.append(value)
        self._record(
            "histogram", name, span=self.current_span_id(), value=value
        )

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a point-in-time gauge (last write wins per label set).

        Gauges aggregate even when disabled, like counters — they feed
        the ``/metrics`` exporter and :meth:`snapshot` without a sink.
        ``labels`` distinguish series of the same name (e.g. a gauge
        per circuit-breaker key); a ``gauge`` record is emitted only
        when a sink is configured.
        """
        value = float(value)
        label_items = _label_items(labels)
        with self._lock:
            self._gauges[(name, label_items)] = value
        extra = {"span": self.current_span_id(), "value": value}
        if labels:
            extra["labels"] = dict(label_items)
        self._record("gauge", name, **extra)

    # -- aggregation ----------------------------------------------------
    def counters(self) -> dict[str, float]:
        """A copy of the counter totals, keyed ``name`` or ``name{k=v,...}``."""
        return {
            format_gauge_key(name, labels): value
            for (name, labels), value in self.counter_series().items()
        }

    def counter_series(self) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
        """A copy of the counter table, keyed ``(name, sorted label items)``."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
        """A copy of the gauge table, keyed ``(name, sorted label items)``."""
        with self._lock:
            return dict(self._gauges)

    def histogram_summary(self, name: str) -> dict | None:
        """Count/mean/min/max and p50/p90/p99 of one histogram."""
        with self._lock:
            values = list(self._histograms.get(name, ()))
        return summarize_values(values)

    def snapshot(self) -> dict:
        """Counters, gauges and histogram summaries (JSON-able)."""
        counters = self.counters()
        with self._lock:
            gauges = dict(self._gauges)
            histograms = {k: list(v) for k, v in self._histograms.items()}
        return {
            "counters": counters,
            "gauges": {
                format_gauge_key(name, labels): value
                for (name, labels), value in gauges.items()
            },
            "histograms": {
                name: summarize_values(values)
                for name, values in histograms.items()
            },
        }

    def reset(self) -> None:
        """Clear aggregated counters/gauges/histograms (sink untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def flush(self) -> None:
        """Flush the sink."""
        self.sink.flush()


def _label_items(labels: dict) -> tuple[tuple[str, str], ...]:
    """A label mapping as sorted ``(key, value)`` string pairs."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_gauge_key(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """A human/JSON-friendly series key: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


def summarize_values(values: list[float]) -> dict | None:
    """Summary statistics of a value list (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": _percentile(ordered, 0.50),
        "p90": _percentile(ordered, 0.90),
        "p99": _percentile(ordered, 0.99),
    }


# ----------------------------------------------------------------------
# The process-local registry
# ----------------------------------------------------------------------
_GLOBAL = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-local registry every instrumented module consults."""
    return _GLOBAL


def configure(sink=None, *, sample_every: int | None = None) -> Telemetry:
    """Replace the global registry's sink (None disables tracing).

    Aggregated counters/histograms survive reconfiguration only in the
    sense that a fresh registry starts empty — ``configure`` installs
    a new :class:`Telemetry`, which is what tests rely on for
    isolation.  The sink it replaces is closed (a closed
    :class:`JsonlSink` reopens on its next write, and a closed
    :class:`~repro.telemetry.sinks.MemorySink` keeps its records).
    Returns the new registry.
    """
    global _GLOBAL
    stride = 1 if sample_every is None else sample_every
    old = _GLOBAL.sink
    _GLOBAL = Telemetry(sink, sample_every=stride)
    if old is not _GLOBAL.sink:
        old.close()
    return _GLOBAL


def configure_from_env(path=None) -> Telemetry:
    """Configure from ``REPRO_TELEMETRY`` / ``REPRO_TELEMETRY_SAMPLE``.

    ``path`` (the CLI ``--telemetry`` value) overrides the environment
    variable.  Empty, ``0`` and ``off`` disable tracing.  Returns the
    (re)configured global registry; when neither source names a path
    the registry is left exactly as it is, so library callers can
    configure programmatically without the environment fighting them.
    """
    spec = path if path is not None else os.environ.get(TELEMETRY_ENV_VAR)
    if spec is None:
        return _GLOBAL
    stride_env = os.environ.get(TELEMETRY_SAMPLE_ENV_VAR, "").strip()
    try:
        stride = int(stride_env) if stride_env else 1
    except ValueError:
        raise ValueError(
            f"{TELEMETRY_SAMPLE_ENV_VAR} must be a positive integer, "
            f"got {stride_env!r}"
        ) from None
    if str(spec).strip().lower() in ("", "0", "off"):
        return configure(None, sample_every=stride)
    return configure(JsonlSink(spec), sample_every=stride)
