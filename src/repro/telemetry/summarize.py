"""Trace analysis: turn JSONL telemetry streams into a text report.

The consumer side of :mod:`repro.telemetry`: ``repro trace summarize
PATH...`` loads the records a run emitted (engine spans, shard spans,
per-round points, histograms, lifecycle counters — possibly from
several processes and several per-host files) and renders

* the **span tree** — every span with wall/CPU durations and its
  end-of-span fields, children indented under parents (deterministic
  span ids plus the cross-process trace context are what stitch
  worker- and broker-process spans under the dispatching run's span);
* the **per-hop breakdown** — spans grouped by name (client engine,
  broker job, worker shards) with process counts and wall totals,
  next to the broker's queue wait/exec histograms;
* the **counters** — summed per name and label set across processes;
* the **histograms** — count/mean/p50/p90/p99/max per name plus a
  coarse ASCII distribution, which is where per-round timing skew
  ("hot rounds") becomes visible at a glance.

Spans whose parent never appears in the stream (a worker file
summarized without its client's file, say) are *orphans*: they are
kept as extra roots and reported explicitly, never dropped.

Everything here is pure post-processing over the record dicts; it
never imports the engine, so traces can be summarised on machines
without the simulation stack warmed up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import _label_items, format_gauge_key, summarize_values
from .sinks import load_jsonl

__all__ = [
    "SpanNode",
    "TraceSummary",
    "load_trace",
    "load_traces",
    "summarize_trace",
    "render_trace",
    "histogram_bar",
    "fill_bar",
]


@dataclass
class SpanNode:
    """One reconstructed span: identity, timings, and children."""

    span_id: str
    name: str = "?"
    parent_id: str | None = None
    pid: int | None = None
    started: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    fields: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)
    points: int = 0


@dataclass
class TraceSummary:
    """A digested trace: span roots plus aggregated metrics.

    ``orphans`` lists spans whose recorded parent id never appeared in
    the stream — they are *also* present in ``roots`` (reported, not
    dropped).  ``hops`` groups spans by name: span count, distinct
    pids, and total/mean wall seconds per hop.
    """

    records: int
    pids: list[int]
    roots: list[SpanNode]
    counters: dict[str, float]
    histograms: dict[str, dict]
    points: dict[str, int]
    orphans: list[SpanNode] = field(default_factory=list)
    hops: dict[str, dict] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)


def load_trace(path) -> list[dict]:
    """Read a JSONL trace file into a record list (validating as it goes)."""
    return list(load_jsonl(path))


def load_traces(paths) -> list[dict]:
    """Concatenate several JSONL trace files into one record list.

    The multi-host entry point: each process (client, broker, workers
    on other machines) appends to its own file, and summarizing their
    concatenation stitches one tree via the shared deterministic span
    ids.  A missing file raises ``OSError``, a corrupt line the
    line-numbered ``ValueError`` from
    :func:`~repro.telemetry.sinks.load_jsonl`, and an *empty* file an
    explicit ``ValueError`` naming it — an empty trace is always an
    operator error (wrong path, tracing never enabled), never a report.
    """
    records: list[dict] = []
    for path in paths:
        loaded = load_trace(path)
        if not loaded:
            raise ValueError(f"{path}: trace file is empty (no records)")
        records.extend(loaded)
    return records


def summarize_trace(records) -> TraceSummary:
    """Reconstruct spans and aggregate metrics from raw records."""
    spans: dict[str, SpanNode] = {}
    counters: dict[str, float] = {}
    histograms: dict[str, list[float]] = {}
    points: dict[str, int] = {}
    gauges: dict[str, float] = {}
    pids: set[int] = set()

    def node(span_id: str) -> SpanNode:
        existing = spans.get(span_id)
        if existing is None:
            existing = spans[span_id] = SpanNode(span_id)
        return existing

    for record in records:
        kind = record.get("kind")
        name = str(record.get("name", "?"))
        pid = record.get("pid")
        if pid is not None:
            pids.add(int(pid))
        if kind == "span-start":
            span = node(str(record["span"]))
            span.name = name
            span.parent_id = record.get("parent")
            span.pid = pid
            span.started = record.get("ts")
            span.fields.update(record.get("fields") or {})
        elif kind == "span-end":
            span = node(str(record["span"]))
            span.name = name
            if span.pid is None:
                span.pid = pid
            if span.parent_id is None:
                span.parent_id = record.get("parent")
            span.wall_s = record.get("wall_s")
            span.cpu_s = record.get("cpu_s")
            span.fields.update(record.get("fields") or {})
        elif kind == "point":
            points[name] = points.get(name, 0) + 1
            parent = record.get("span")
            if parent is not None and parent in spans:
                spans[parent].points += 1
        elif kind == "counter":
            key = format_gauge_key(name, _label_items(record.get("labels") or {}))
            counters[key] = counters.get(key, 0) + float(record.get("value", 0))
        elif kind == "histogram":
            histograms.setdefault(name, []).append(float(record.get("value", 0)))
        elif kind == "gauge":
            key = format_gauge_key(name, _label_items(record.get("labels") or {}))
            gauges[key] = float(record.get("value", 0))

    roots: list[SpanNode] = []
    orphans: list[SpanNode] = []
    for span in spans.values():
        parent = spans.get(span.parent_id) if span.parent_id else None
        if parent is None or parent is span:
            roots.append(span)
            if span.parent_id and parent is not span:
                # The parent id is known but its span never appeared in
                # the stream (partial multi-host collection): keep the
                # subtree as a root and flag it, never drop it.
                orphans.append(span)
        else:
            parent.children.append(span)
    ordering = {id(s): i for i, s in enumerate(spans.values())}
    for span in spans.values():
        span.children.sort(key=lambda s: (s.started or 0.0, ordering[id(s)]))
    roots.sort(key=lambda s: (s.started or 0.0, ordering[id(s)]))

    hops: dict[str, dict] = {}
    for span in spans.values():
        hop = hops.setdefault(
            span.name, {"spans": 0, "pids": set(), "wall": [], "orphans": 0}
        )
        hop["spans"] += 1
        if span.pid is not None:
            hop["pids"].add(int(span.pid))
        if span.wall_s is not None:
            hop["wall"].append(float(span.wall_s))
    for span in orphans:
        hops[span.name]["orphans"] += 1
    hop_summary = {
        name: {
            "spans": hop["spans"],
            "pids": len(hop["pids"]),
            "orphans": hop["orphans"],
            "wall_total_s": sum(hop["wall"]) if hop["wall"] else None,
            "wall_mean_s": (
                sum(hop["wall"]) / len(hop["wall"]) if hop["wall"] else None
            ),
        }
        for name, hop in sorted(hops.items())
    }

    return TraceSummary(
        records=len(records),
        pids=sorted(pids),
        roots=roots,
        counters=counters,
        histograms={
            name: summarize_values(values)
            for name, values in histograms.items()
        },
        points=points,
        orphans=orphans,
        hops=hop_summary,
        gauges=gauges,
    )


def _format_seconds(value) -> str:
    if value is None:
        return "?"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _format_fields(fields: dict, limit: int = 6) -> str:
    shown = []
    for key in sorted(fields):
        value = fields[key]
        if isinstance(value, float):
            value = f"{value:.4g}"
        shown.append(f"{key}={value}")
        if len(shown) >= limit:
            break
    return " ".join(shown)


def _render_span(span: SpanNode, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    timing = f"wall={_format_seconds(span.wall_s)} cpu={_format_seconds(span.cpu_s)}"
    extras = _format_fields(span.fields)
    tail = f"  [{span.points} round events]" if span.points else ""
    lines.append(
        f"{indent}- {span.name} ({timing})"
        + (f"  {extras}" if extras else "")
        + tail
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def histogram_bar(summary: dict, width: int = 24) -> str:
    """A crude density bar: where the mass sits between min and max.

    ``5``/``9``/``+`` mark p50/p90/p99 between the distribution's min
    and max.
    """
    lo, hi = summary["min"], summary["max"]
    if hi <= lo:
        return "#" * width
    marks = []
    for q in ("p50", "p90", "p99"):
        pos = (summary[q] - lo) / (hi - lo)
        marks.append(min(width - 1, max(0, int(pos * (width - 1)))))
    bar = ["."] * width
    for pos, glyph in zip(marks, "59+"):
        bar[pos] = glyph
    return "".join(bar)


def fill_bar(value: float, max_value: float, width: int = 24) -> str:
    """A proportional fill bar: ``value`` as a fraction of ``max_value``.

    The magnitude sibling of :func:`histogram_bar`.
    """
    if max_value <= 0 or value is None or value <= 0:
        return ""
    frac = min(1.0, float(value) / float(max_value))
    return "#" * max(1, int(round(frac * width)))


def render_trace(records) -> str:
    """Render the full text report for a record list (or a trace path)."""
    if isinstance(records, (str, bytes)) or hasattr(records, "__fspath__"):
        records = load_trace(records)
    summary = summarize_trace(records)
    lines = [
        f"trace: {summary.records} records from "
        f"{len(summary.pids)} process(es)"
    ]

    lines.append("")
    lines.append("spans:")
    if summary.roots:
        for root in summary.roots:
            _render_span(root, 1, lines)
    else:
        lines.append("  (none)")

    if summary.orphans:
        lines.append("")
        lines.append(
            f"orphan spans ({len(summary.orphans)} whose parent never "
            "appeared in the stream — summarized as extra roots):"
        )
        for span in summary.orphans:
            lines.append(
                f"  - {span.name} (span={span.span_id} "
                f"parent={span.parent_id} pid={span.pid})"
            )

    if summary.hops:
        lines.append("")
        lines.append("per-hop breakdown:")
        for name, hop in summary.hops.items():
            wall = (
                f"wall total={_format_seconds(hop['wall_total_s'])} "
                f"mean={_format_seconds(hop['wall_mean_s'])}"
                if hop["wall_total_s"] is not None
                else "wall=?"
            )
            lines.append(
                f"  {name:28} spans={hop['spans']:<4} "
                f"pids={hop['pids']:<3} {wall}"
            )
        for label, key in (("queue wait", "broker.wait.seconds"),
                           ("queue exec", "broker.exec.seconds")):
            stats = summary.histograms.get(key)
            if stats:
                lines.append(
                    f"  {label:28} n={stats['count']:<4} "
                    f"p50={stats['p50']:.4g} p90={stats['p90']:.4g} "
                    f"p99={stats['p99']:.4g}"
                )

    if summary.points:
        lines.append("")
        lines.append("events:")
        for name in sorted(summary.points):
            lines.append(f"  {name:32} x{summary.points[name]}")

    if summary.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(summary.counters):
            value = summary.counters[name]
            text = f"{value:g}"
            lines.append(f"  {name:32} {text}")

    if summary.gauges:
        lines.append("")
        lines.append("gauges (last value seen):")
        for name in sorted(summary.gauges):
            lines.append(f"  {name:32} {summary.gauges[name]:g}")

    if summary.histograms:
        lines.append("")
        lines.append("histograms (5=p50 9=p90 +=p99):")
        for name in sorted(summary.histograms):
            stats = summary.histograms[name]
            if stats is None:
                continue
            lines.append(
                f"  {name:28} n={stats['count']:<6} "
                f"mean={stats['mean']:.4g} p50={stats['p50']:.4g} "
                f"p90={stats['p90']:.4g} p99={stats['p99']:.4g} "
                f"max={stats['max']:.4g}"
            )
            lines.append(f"  {'':28} [{histogram_bar(stats)}]")

    return "\n".join(lines)
