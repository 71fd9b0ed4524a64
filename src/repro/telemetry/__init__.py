"""repro.telemetry — structured tracing and metrics for the execution stack.

A zero-dependency observation layer: the engine, the sharded runner,
and the distributed broker/worker/client all report what they are
doing — per-round progress, per-shard timings, queue lifecycle events,
cache hits — through a :class:`Telemetry` registry with pluggable
sinks: the process-local one, plus one per broker for its queue
metrics.  Tracing is off by default (the null sink: one
branch per instrumented site) and never perturbs results: enabling it
leaves every engine, sharded, and distributed output bit-identical.

Quickstart::

    from repro.telemetry import configure, JsonlSink

    configure(JsonlSink("trace.jsonl"), sample_every=4)
    engine.run_sharded(state, seed=7)          # instrumented end to end
    # then: repro trace summarize trace.jsonl

Or from the CLI/environment: every execution command accepts
``--telemetry PATH`` and honours ``REPRO_TELEMETRY`` /
``REPRO_TELEMETRY_SAMPLE``.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "core": [
            "Telemetry",
            "Span",
            "TraceContext",
            "configure",
            "configure_from_env",
            "get_telemetry",
            "span_id_from",
            "seed_id_parts",
            "summarize_values",
            "format_gauge_key",
            "TELEMETRY_ENV_VAR",
            "TELEMETRY_SAMPLE_ENV_VAR",
        ],
        # live observability plane
        "live": [
            "METRICS_PORT_ENV_VAR",
            "MetricsServer",
            "render_prometheus",
            "parse_prometheus",
            "metrics_port_from_env",
            "fetch_statusz",
            "render_status_panel",
        ],
        # resource profiling
        "resource": ["resource_snapshot", "max_rss_bytes"],
        "sinks": ["NullSink", "NULL_SINK", "MemorySink", "JsonlSink", "load_jsonl"],
        "summarize": [
            "SpanNode",
            "TraceSummary",
            "load_trace",
            "load_traces",
            "summarize_trace",
            "render_trace",
            "histogram_bar",
            "fill_bar",
        ],
    },
)
