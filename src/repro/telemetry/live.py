"""The live observability plane: Prometheus exporter, HTTP endpoints, panels.

Three layers, all stdlib-only:

* **Exposition** — :func:`render_prometheus` maps telemetry
  registries (counters and gauges, labelled or not, and histogram
  summaries) to Prometheus text format 0.0.4: dotted names normalised
  to underscores, histogram percentiles exported as
  ``_p50``/``_p90``/``_p99`` gauges alongside ``_count``/``_sum``.
  :func:`parse_prometheus` is the strict round-trip parser the tests
  and CI scrape leg validate with.
* **Serving** — :class:`MetricsServer` embeds a daemon
  ``http.server`` thread (``--metrics-port`` / ``REPRO_METRICS_PORT``)
  exposing ``/metrics`` (exposition text), ``/healthz`` (JSON
  liveness, 503 when degraded) and ``/statusz`` (one JSON frame of
  queue/worker/cache/resource state).  Values that are state rather
  than events (resource usage, a broker's queue depths) are read into
  a fresh registry with no sink when ``/metrics`` is scraped, so no
  thread runs between scrapes and scraping never writes to a trace.
* **Rendering** — :func:`render_status_panel` formats one ``/statusz``
  frame as a terminal panel with the shared
  :func:`~repro.telemetry.summarize.histogram_bar` /
  :func:`~repro.telemetry.summarize.fill_bar` renderers; it is the
  single layout used by both ``repro status`` and ``repro top``.

Everything here only *reads* state — serving metrics never perturbs
results, and with no server started the exporter costs nothing.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import TYPE_CHECKING

from .core import Telemetry, get_telemetry
from .summarize import fill_bar, histogram_bar

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = [
    "METRICS_PORT_ENV_VAR",
    "normalise_metric_name",
    "render_prometheus",
    "parse_prometheus",
    "MetricsServer",
    "metrics_port_from_env",
    "fetch_statusz",
    "latency_line",
    "human_bytes",
    "render_status_panel",
]

#: Environment variable naming the metrics port (CLI ``--metrics-port``
#: overrides it; empty/``0``/``off`` disables the server).
METRICS_PORT_ENV_VAR = "REPRO_METRICS_PORT"

# How often the serving thread checks for a shutdown request, in
# seconds: stop() waits up to this long (http.server's default is 0.5).
_SHUTDOWN_POLL_S = 0.02

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def normalise_metric_name(name: str) -> str:
    """Map a dotted repro metric name onto the Prometheus grammar.

    Dots and any other character outside ``[a-zA-Z0-9_:]`` become
    underscores; a leading digit gets an underscore prefix.
    """
    name = _NAME_BAD.sub("_", str(name))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _render_labels(labels: tuple) -> str:
    """Render sorted ``(key, value)`` label items as ``{k="v",...}`` (or '')."""
    if not labels:
        return ""
    body = ",".join(
        f'{normalise_metric_name(k)}="{_escape_label(v)}"' for k, v in labels
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _series_by_name(table) -> list[tuple[str, list[tuple[tuple, float]]]]:
    """Group a registry table ``{(name, label_items): v}`` by name, sorted."""
    series: dict[str, list[tuple[tuple, float]]] = {}
    for (name, labels), value in table.items():
        series.setdefault(name, []).append((tuple(labels), float(value)))
    return [(name, sorted(series[name])) for name in sorted(series)]


def render_prometheus(*registries) -> str:
    """Render telemetry registries as Prometheus text 0.0.4.

    With no argument the process registry is rendered.  Several
    registries (the process one and a broker's own, say) render as one
    exposition; on a collision of name and labels the later registry
    wins.  Histogram summaries (the shape of
    :func:`~repro.telemetry.core.summarize_values`) become
    ``_p50``/``_p90``/``_p99`` gauges plus ``_count``/``_sum``
    counters, the sum reconstructed as ``mean * count``.
    """
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    for tel in registries or (get_telemetry(),):
        counters.update(tel.counter_series())
        gauges.update(tel.gauges())
        histograms.update(
            (name, summary)
            for name, summary in tel.snapshot()["histograms"].items()
            if summary
        )

    lines: list[str] = []
    for kind, table in (("counter", counters), ("gauge", gauges)):
        for name, series in _series_by_name(table):
            metric = normalise_metric_name(name)
            lines.append(f"# TYPE {metric} {kind}")
            for labels, value in series:
                lines.append(
                    f"{metric}{_render_labels(labels)} {_format_value(value)}"
                )
    for name in sorted(histograms):
        summary = histograms[name]
        metric = normalise_metric_name(name)
        for q in ("p50", "p90", "p99"):
            lines.append(f"# TYPE {metric}_{q} gauge")
            lines.append(f"{metric}_{q} {_format_value(summary[q])}")
        count = int(summary["count"])
        lines.append(f"# TYPE {metric}_count counter")
        lines.append(f"{metric}_count {count}")
        lines.append(f"# TYPE {metric}_sum counter")
        lines.append(f"{metric}_sum {_format_value(summary['mean'] * count)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, dict[tuple, float]]:
    """Strictly parse exposition text back to ``{name: {labels: value}}``.

    The round-trip validator for :func:`render_prometheus`: every line
    must be blank, a ``#`` comment, or a well-formed sample whose value
    parses as a float and whose label block (if any) is fully consumed
    by ``key="value"`` pairs.  Malformed input raises ``ValueError``
    naming the offending line.
    """
    families: dict[str, dict[tuple, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        name, label_block, raw_value = match.groups()
        labels: tuple = ()
        if label_block:
            pairs = _LABEL_RE.findall(label_block)
            consumed = ",".join(f'{k}="{v}"' for k, v in pairs)
            if consumed != label_block.rstrip(","):
                raise ValueError(
                    f"line {lineno}: malformed label block: {{{label_block}}}"
                )
            labels = tuple(sorted(pairs))
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: not a float value: {raw_value!r}"
            ) from None
        families.setdefault(name, {})[labels] = value
    return families


def metrics_port_from_env(override=None) -> int | None:
    """Resolve the metrics port: CLI ``override`` wins over the env var.

    ``REPRO_METRICS_PORT`` empty/``0``/``off`` (the repo's usual
    disable spellings) means no server; an explicit override of ``0``
    asks for an ephemeral port.  Returns ``None`` when disabled.
    """
    if override is not None:
        return int(override)
    spec = os.environ.get(METRICS_PORT_ENV_VAR)
    if spec is None:
        return None
    spec = spec.strip().lower()
    if spec in ("", "0", "off"):
        return None
    try:
        return int(spec)
    except ValueError:
        raise ValueError(
            f"{METRICS_PORT_ENV_VAR} must be an integer port, got {spec!r}"
        ) from None


def _read_process_state(tel) -> None:
    """Read this process's resource usage into ``tel``.

    Called on every ``/metrics`` scrape with a registry of its own: it
    is state, not events, so it is read when asked for instead of
    pushed by a thread, and never traced.
    """
    from .resource import resource_snapshot

    snap = resource_snapshot()
    for key in ("rss_bytes", "max_rss_bytes", "open_fds"):
        if key in snap:
            tel.gauge(f"process.{key}", snap[key])
    if "cpu_user_s" in snap:
        tel.gauge("process.cpu_user_seconds", snap["cpu_user_s"])
        tel.gauge("process.cpu_system_seconds", snap["cpu_system_s"])
    for gen, collections in enumerate(snap["gc_collections"]):
        tel.gauge("process.gc_collections", collections, generation=gen)


class MetricsServer:
    """A daemon HTTP thread serving ``/metrics``, ``/healthz``, ``/statusz``.

    ``status``/``health``/``registries`` are optional zero-argument
    callables supplying the ``/statusz`` JSON frame, the ``/healthz``
    verdict (a dict whose ``ok`` key picks 200 vs 503) and the
    :class:`~repro.telemetry.Telemetry` registries rendered on
    ``/metrics`` after the process registry (a broker's own and its
    queue state, read on each call); with none supplied the server
    reports the process registry and resource snapshot alone.  Every
    scrape also reads resource usage (``process.*``) into a fresh
    registry with no sink, so scraping never writes to a trace.  A
    callback that raises yields a 500 response — the serving thread
    never dies with it.  Port ``0`` binds an ephemeral port, readable
    from :attr:`port` after :meth:`start`.  Usable as a context
    manager.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        status=None,
        health=None,
        registries=None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self._status = status
        self._health = health
        self._registries = registries
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        """``host:port`` of the bound server (port 0 before start)."""
        return f"{self.host}:{self.port}"

    def _metrics_text(self) -> str:
        state = Telemetry()
        _read_process_state(state)
        others = () if self._registries is None else self._registries()
        return render_prometheus(get_telemetry(), state, *others)

    def _health_payload(self) -> dict:
        if self._health is not None:
            payload = dict(self._health())
        else:
            payload = {"ok": True}
        payload.setdefault("ok", True)
        return payload

    def _status_payload(self) -> dict:
        if self._status is not None:
            return dict(self._status())
        from .resource import resource_snapshot

        return {
            "role": "process",
            "pid": os.getpid(),
            "telemetry": get_telemetry().snapshot(),
            "resources": resource_snapshot(),
        }

    def start(self) -> "MetricsServer":
        """Bind the port and start serving (idempotent)."""
        if self._server is not None:
            return self
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        outer = self

        class _Handler(BaseHTTPRequestHandler):
            """Routes the three observability endpoints."""

            def log_message(self, fmt, *args):  # noqa: ARG002
                """Silence per-request stderr logging."""

            def _send(self, code: int, content_type: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 - http.server API
                """Serve /metrics, /healthz or /statusz (404 otherwise)."""
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        body = outer._metrics_text().encode("utf-8")
                        self._send(
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            body,
                        )
                    elif path == "/healthz":
                        payload = outer._health_payload()
                        code = 200 if payload.get("ok") else 503
                        self._send(
                            code,
                            "application/json",
                            json.dumps(payload, default=str).encode("utf-8"),
                        )
                    elif path == "/statusz":
                        self._send(
                            200,
                            "application/json",
                            json.dumps(
                                outer._status_payload(), default=str
                            ).encode("utf-8"),
                        )
                    else:
                        self._send(404, "text/plain", b"not found\n")
                except (BrokenPipeError, ConnectionResetError):
                    pass
                except Exception as exc:  # noqa: BLE001 - keep serving
                    try:
                        self._send(
                            500,
                            "application/json",
                            json.dumps({"error": str(exc)}).encode("utf-8"),
                        )
                    except OSError:
                        pass

        server = ThreadingHTTPServer((self.host, self.port), _Handler)
        server.daemon_threads = True
        self.port = server.server_address[1]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_S},
            name=f"repro-metrics-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down (idempotent; safe if never started)."""
        server = self._server
        if server is None:
            return
        server.shutdown()
        server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def fetch_statusz(endpoint: str, *, timeout: float = 2.0) -> dict:
    """GET and decode ``/statusz`` from ``host:port`` (or a full URL).

    Raises ``OSError`` when the endpoint is unreachable and
    ``ValueError`` when the body is not a JSON object.
    """
    import urllib.request

    base = endpoint if "://" in endpoint else f"http://{endpoint}"
    with urllib.request.urlopen(f"{base}/statusz", timeout=timeout) as response:
        body = response.read().decode("utf-8")
    payload = json.loads(body)
    if not isinstance(payload, dict):
        raise ValueError(f"{endpoint}: /statusz did not return a JSON object")
    return payload


# ----------------------------------------------------------------------
# The shared status panel (repro status + repro top)
# ----------------------------------------------------------------------

def human_bytes(n) -> str:
    """``n`` bytes as B/KiB/MiB/GiB with one decimal."""
    n = float(n)
    for unit in ("B", "KiB", "MiB"):
        if abs(n) < 1024:
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GiB"


def latency_line(summary) -> str:
    """One line of latency percentiles from a histogram summary dict."""
    if not summary:
        return "(no samples yet)"
    return (
        f"n={summary['count']} p50={summary['p50'] * 1e3:.1f}ms "
        f"p90={summary['p90'] * 1e3:.1f}ms p99={summary['p99'] * 1e3:.1f}ms "
        f"max={summary['max'] * 1e3:.1f}ms"
    )


def _queue_lines(queue: dict, lines: list[str]) -> None:
    core = ("jobs", "pending", "leased", "done", "failed")
    parts = [f"{key}={queue.get(key, 0)}" for key in core if key in queue]
    for key in sorted(set(queue) - set(core)):
        parts.append(f"{key}={queue[key]}")
    lines.append("  queue   : " + " ".join(parts))
    shards = sum(int(queue.get(k, 0)) for k in ("pending", "leased", "done", "failed"))
    done = int(queue.get("done", 0))
    if shards:
        bar = fill_bar(done, shards, 24) or ""
        lines.append(
            f"  progress: [{bar:<24}] {done}/{shards} shard(s) done"
        )


def _metrics_lines(metrics: dict, lines: list[str]) -> None:
    lines.append(
        "  traffic : "
        f"submits={metrics.get('submits', 0)} "
        f"shards={metrics.get('shards_submitted', 0)} "
        f"leases={metrics.get('leases', 0)} "
        f"completes={metrics.get('completes', 0)} "
        f"requeues={metrics.get('requeues', 0)} "
        f"heartbeats={metrics.get('heartbeats', 0)} "
        f"errors={metrics.get('worker_errors', 0)}"
    )
    uptime = metrics.get("uptime_s")
    if uptime and uptime > 0:
        lines.append(
            "  rates   : "
            f"{metrics.get('leases', 0) / uptime:.2f} lease/s "
            f"{metrics.get('completes', 0) / uptime:.2f} complete/s "
            f"{metrics.get('requeues', 0) / uptime:.2f} requeue/s "
            f"(uptime {uptime:.0f}s)"
        )
    for label, key in (("wait", "wait_s"), ("exec", "exec_s")):
        summary = metrics.get(key)
        line = f"  {label:8}: {latency_line(summary)}"
        if summary:
            line += f" [{histogram_bar(summary, 16)}]"
        lines.append(line)
    workers = metrics.get("workers") or {}
    peak_tp = max(
        (float(s.get("throughput", 0.0)) for s in workers.values()), default=0.0
    )
    for worker_id, stats in sorted(workers.items()):
        tp = float(stats.get("throughput", 0.0))
        bar = fill_bar(tp, peak_tp, 10)
        line = (
            f"  {worker_id:8}: completed={stats.get('completed', 0)} "
            f"busy={stats.get('busy_s', 0.0):.2f}s "
            f"runs={stats.get('runs', 0)} rounds={stats.get('rounds', 0)} "
            f"throughput={tp:.2f} shard/s"
        )
        rss = stats.get("max_rss")
        if rss:
            line += f" rss={human_bytes(rss)}"
        if bar:
            line += f" [{bar:<10}]"
        lines.append(line)


def render_status_panel(status: dict, *, title=None, stale_s=None) -> str:
    """Format one ``/statusz`` frame (or adapted broker reply) as a panel.

    The one layout both ``repro status`` and ``repro top`` print.  All
    sections are optional: ``queue`` (ledger counts + progress bar),
    ``metrics`` (the broker's queue metrics: traffic, rates, wait/exec
    percentiles with :func:`histogram_bar`, per-worker throughput/RSS
    with :func:`fill_bar`), ``cache``, ``counters``, ``resources`` and
    ``health``.  ``stale_s`` marks the panel as
    rendered from the last reachable frame.
    """
    role = status.get("role", "endpoint")
    addr = status.get("address") or status.get("endpoint") or ""
    head = title if title is not None else f"{role} {addr}".strip()
    if status.get("pid") is not None:
        head += f" (pid {status['pid']})"
    if stale_s is not None:
        head += f"  [STALE {stale_s:.1f}s — endpoint unreachable]"
    lines = [head]
    health = status.get("health")
    if health is not None and not health.get("ok", True):
        detail = health.get("detail") or health
        lines.append(f"  health  : DEGRADED ({detail})")
    if "queue" in status:
        _queue_lines(status["queue"], lines)
    if status.get("metrics"):
        _metrics_lines(status["metrics"], lines)
    cache = status.get("cache")
    if cache is not None:
        if not cache.get("enabled"):
            lines.append("  cache   : disabled (REPRO_CACHE_DIR)")
        else:
            lines.append(
                f"  cache   : {cache.get('entries', 0)} entr(ies), "
                f"{cache.get('bytes', 0)} bytes at {cache.get('path', '?')}"
            )
    counters = status.get("counters")
    if counters:
        rendered = " ".join(
            f"{k}={int(v)}" for k, v in sorted(counters.items())
        )
        lines.append(f"  counters: {rendered}")
    resources = status.get("resources")
    if resources:
        parts = []
        if "rss_bytes" in resources:
            parts.append(f"rss={human_bytes(resources['rss_bytes'])}")
        if "max_rss_bytes" in resources:
            parts.append(f"peak={human_bytes(resources['max_rss_bytes'])}")
        if "cpu_user_s" in resources:
            parts.append(
                f"cpu={resources['cpu_user_s']:.1f}u/"
                f"{resources.get('cpu_system_s', 0.0):.1f}s"
            )
        if "open_fds" in resources:
            parts.append(f"fds={resources['open_fds']}")
        gcs = resources.get("gc_collections")
        if gcs:
            parts.append("gc=" + "/".join(str(c) for c in gcs))
        if parts:
            lines.append("  process : " + " ".join(parts))
    return "\n".join(lines)
