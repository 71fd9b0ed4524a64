"""The live plane: exposition render/parse, HTTP server, status panel."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.telemetry import (
    MemorySink,
    MetricsServer,
    Telemetry,
    configure,
    fetch_statusz,
    get_telemetry,
    metrics_port_from_env,
    parse_prometheus,
    render_prometheus,
    render_status_panel,
)
from repro.telemetry.core import HISTOGRAM_WINDOW
from repro.telemetry.live import (
    METRICS_PORT_ENV_VAR,
    human_bytes,
    latency_line,
    normalise_metric_name,
)


def _get(url, timeout=2.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers, response.read()


class TestNormaliseMetricName:
    def test_dots_become_underscores(self):
        assert normalise_metric_name("broker.queue.leases") == "broker_queue_leases"

    def test_arbitrary_bad_chars(self):
        assert normalise_metric_name("a-b c/d") == "a_b_c_d"

    def test_leading_digit_prefixed(self):
        assert normalise_metric_name("9lives") == "_9lives"

    def test_colon_preserved(self):
        assert normalise_metric_name("ns:metric") == "ns:metric"


class TestRenderPrometheus:
    def test_counters_and_histograms_round_trip(self):
        tel = Telemetry()
        tel.count("client.submits", 3)
        for value in (0.1, 0.2, 0.3, 0.4):
            tel.observe("wait.seconds", value)
        families = parse_prometheus(render_prometheus(tel))
        assert families["client_submits"][()] == 3.0
        assert families["wait_seconds_count"][()] == 4.0
        assert families["wait_seconds_sum"][()] == pytest.approx(1.0)
        assert set(families) >= {"wait_seconds_p50", "wait_seconds_p90", "wait_seconds_p99"}

    def test_histograms_keep_the_last_window(self):
        tel = Telemetry()
        for value in range(10_000):
            tel.observe("wait.seconds", value)
        assert HISTOGRAM_WINDOW == 4096
        summary = tel.histogram_summary("wait.seconds")
        assert summary["count"] == 4096
        assert summary["min"] == 10_000 - 4096
        families = parse_prometheus(render_prometheus(tel))
        assert families["wait_seconds_count"][()] == 4096.0
        assert families["wait_seconds_sum"][()] == sum(range(10_000 - 4096, 10_000))

    def test_gauges_with_labels(self):
        tel = Telemetry()
        tel.gauge("process.gc_collections", 7, generation=0)
        tel.gauge("process.gc_collections", 2, generation=1)
        families = parse_prometheus(render_prometheus(tel))
        series = families["process_gc_collections"]
        assert series[(("generation", "0"),)] == 7.0
        assert series[(("generation", "1"),)] == 2.0

    def test_labelled_counters(self):
        tel = Telemetry()
        tel.count("client.submits", 2)
        tel.count("broker.worker.completed", worker="conn-1")
        tel.count("broker.worker.completed", 2, worker="conn-1")
        assert tel.count("broker.worker.completed", worker="conn-2") == 1
        assert tel.counters() == {
            "client.submits": 2,
            "broker.worker.completed{worker=conn-1}": 3,
            "broker.worker.completed{worker=conn-2}": 1,
        }
        text = render_prometheus(tel)
        assert text.count("# TYPE broker_worker_completed counter") == 1
        families = parse_prometheus(text)
        assert families["client_submits"] == {(): 2.0}
        assert families["broker_worker_completed"] == {
            (("worker", "conn-1"),): 3.0,
            (("worker", "conn-2"),): 1.0,
        }

    def test_two_registries_render_together(self):
        process, broker = Telemetry(), Telemetry()
        process.count("client.submits", 1)
        process.gauge("shared", 1.0)
        broker.count("broker.queue.leases", 4)
        broker.observe("broker.wait.seconds", 0.5)
        broker.gauge("shared", 2.0)
        families = parse_prometheus(render_prometheus(process, broker))
        assert families["client_submits"][()] == 1.0
        assert families["broker_queue_leases"][()] == 4.0
        assert families["broker_wait_seconds_count"][()] == 1.0
        assert families["shared"][()] == 2.0  # the later registry wins

    def test_label_values_escaped(self):
        tel = Telemetry()
        tel.gauge("g", 1.0, key='quo"te')
        families = parse_prometheus(render_prometheus(tel))
        assert (("key", 'quo\\"te'),) in families["g"]

    def test_empty_registry_renders_empty(self):
        assert parse_prometheus(render_prometheus(Telemetry())) == {}


class TestParsePrometheus:
    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus("ok 1\n{{{nope\n")

    def test_rejects_non_float_value(self):
        with pytest.raises(ValueError, match="not a float"):
            parse_prometheus("metric abc\n")

    def test_rejects_malformed_label_block(self):
        with pytest.raises(ValueError, match="label block"):
            parse_prometheus('metric{k=unquoted} 1\n')

    def test_comments_and_blanks_skipped(self):
        assert parse_prometheus("# TYPE x counter\n\nx 1\n") == {"x": {(): 1.0}}


class TestMetricsPortFromEnv:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(METRICS_PORT_ENV_VAR, raising=False)
        assert metrics_port_from_env() is None

    @pytest.mark.parametrize("spec", ["", "0", "off", "OFF"])
    def test_disable_spellings(self, monkeypatch, spec):
        monkeypatch.setenv(METRICS_PORT_ENV_VAR, spec)
        assert metrics_port_from_env() is None

    def test_env_port(self, monkeypatch):
        monkeypatch.setenv(METRICS_PORT_ENV_VAR, "9102")
        assert metrics_port_from_env() == 9102

    def test_override_wins_and_zero_is_ephemeral(self, monkeypatch):
        monkeypatch.setenv(METRICS_PORT_ENV_VAR, "9102")
        assert metrics_port_from_env(0) == 0
        assert metrics_port_from_env(7000) == 7000

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(METRICS_PORT_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=METRICS_PORT_ENV_VAR):
            metrics_port_from_env()


class TestMetricsServer:
    def test_metrics_endpoint_serves_registry(self):
        tel = get_telemetry()
        tel.count("client.submits", 4)
        with MetricsServer(port=0) as server:
            status, headers, body = _get(f"http://{server.address}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse_prometheus(body.decode("utf-8"))
        assert families["client_submits"][()] == 4.0

    def test_stop_is_prompt(self):
        server = MetricsServer(port=0).start()
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.25

    def test_healthz_defaults_ok(self):
        with MetricsServer(port=0) as server:
            status, _, body = _get(f"http://{server.address}/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_healthz_degraded_is_503(self):
        health = lambda: {"ok": False, "detail": "sweeper dead"}  # noqa: E731
        with MetricsServer(port=0, health=health) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{server.address}/healthz")
        # An HTTPError is an open response: close it.
        with excinfo.value as error:
            assert error.code == 503
            assert json.loads(error.read())["detail"] == "sweeper dead"

    def test_statusz_default_frame(self):
        with MetricsServer(port=0) as server:
            payload = fetch_statusz(server.address)
        assert payload["role"] == "process"
        assert "resources" in payload and "telemetry" in payload

    def test_statusz_custom_callback(self):
        with MetricsServer(port=0, status=lambda: {"role": "worker", "x": 1}) as server:
            payload = fetch_statusz(server.address)
        assert payload == {"role": "worker", "x": 1}

    def test_unknown_path_is_404(self):
        with MetricsServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{server.address}/nope")
        with excinfo.value as error:
            assert error.code == 404

    def test_raising_callback_is_500_and_server_survives(self):
        def boom():
            raise RuntimeError("kaput")

        with MetricsServer(port=0, status=boom) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{server.address}/statusz")
            with excinfo.value as error:
                assert error.code == 500
            # The serving thread must survive the exception.
            status, _, _ = _get(f"http://{server.address}/healthz")
            assert status == 200

    def test_registries_callable_served_beside_process_registry(self):
        get_telemetry().count("client.submits", 1)
        broker = Telemetry()
        broker.count("broker.queue.leases", 3)
        scrapes = []

        def registries():
            scrapes.append(1)
            state = Telemetry()
            state.gauge("broker.jobs", len(scrapes))
            return broker, state

        with MetricsServer(port=0, registries=registries) as server:
            _, _, first = _get(f"http://{server.address}/metrics")
            _, _, second = _get(f"http://{server.address}/metrics")
        first = parse_prometheus(first.decode("utf-8"))
        second = parse_prometheus(second.decode("utf-8"))
        assert first["broker_queue_leases"][()] == 3.0
        assert first["client_submits"][()] == 1.0
        # Called on every scrape, so state read into it is current.
        assert (first["broker_jobs"][()], second["broker_jobs"][()]) == (1.0, 2.0)

    def test_scrape_writes_no_trace_record(self):
        sink = MemorySink()
        tel = configure(sink)
        tel.count("client.submits", 1)
        sink.records.clear()
        with MetricsServer(port=0) as server:
            _, _, body = _get(f"http://{server.address}/metrics")
        families = parse_prometheus(body.decode("utf-8"))
        assert families["process_rss_bytes"][()] > 0
        # State read at scrape time is served, but never traced.
        assert sink.records == []
        assert not any(name.startswith("process.") for name, _ in tel.gauges())

    def test_stop_is_idempotent(self):
        server = MetricsServer(port=0).start()
        server.stop()
        server.stop()
        MetricsServer(port=0).stop()  # never started


class TestFetchStatusz:
    def test_unreachable_raises_oserror(self):
        with pytest.raises(OSError):
            fetch_statusz("127.0.0.1:1", timeout=0.2)


class TestHumanBytes:
    def test_units(self):
        assert human_bytes(512) == "512B"
        assert human_bytes(2048) == "2.0KiB"
        assert human_bytes(3 * 1024**2) == "3.0MiB"
        assert human_bytes(5 * 1024**3) == "5.0GiB"


class TestLatencyLine:
    def test_empty_summary(self):
        assert latency_line(None) == "(no samples yet)"

    def test_formats_milliseconds(self):
        summary = {"count": 3, "p50": 0.05, "p90": 0.09, "p99": 0.099, "max": 0.1}
        line = latency_line(summary)
        assert "n=3" in line and "p50=50.0ms" in line and "max=100.0ms" in line


class TestRenderStatusPanel:
    def _frame(self):
        return {
            "role": "broker",
            "address": "127.0.0.1:7600",
            "pid": 42,
            "queue": {"jobs": 1, "pending": 2, "leased": 1, "done": 5, "failed": 0},
            "metrics": {
                "submits": 1,
                "shards_submitted": 8,
                "leases": 6,
                "completes": 5,
                "requeues": 0,
                "heartbeats": 3,
                "worker_errors": 0,
                "uptime_s": 10.0,
                "wait_s": {"count": 5, "mean": 0.05, "p50": 0.05, "p90": 0.08,
                           "p99": 0.09, "max": 0.09, "min": 0.01},
                "exec_s": None,
                "workers": {
                    "conn-1": {"completed": 3, "busy_s": 0.5, "runs": 24,
                               "rounds": 40, "throughput": 0.3, "max_rss": 1024**2},
                    "conn-2": {"completed": 2, "busy_s": 0.4, "runs": 16,
                               "rounds": 30, "throughput": 0.2},
                },
            },
            "cache": {"enabled": True, "path": "/tmp/c", "entries": 2, "bytes": 99},
            "resources": {"rss_bytes": 1024**2, "max_rss_bytes": 2 * 1024**2,
                          "cpu_user_s": 1.5, "cpu_system_s": 0.5,
                          "open_fds": 12, "gc_collections": [10, 2, 1]},
        }

    def test_full_panel_sections(self):
        panel = render_status_panel(self._frame())
        assert panel.startswith("broker 127.0.0.1:7600 (pid 42)")
        assert "progress:" in panel and "5/8 shard(s) done" in panel
        assert "0.60 lease/s" in panel
        assert "wait    : n=5" in panel
        assert "exec    : (no samples yet)" in panel
        assert "conn-1" in panel and "rss=1.0MiB" in panel
        assert "throughput=0.30 shard/s" in panel
        assert "process : rss=1.0MiB peak=2.0MiB cpu=1.5u/0.5s fds=12 gc=10/2/1" in panel

    def test_stale_marker(self):
        panel = render_status_panel(self._frame(), stale_s=7.25)
        assert "[STALE 7.2s" in panel

    def test_degraded_health(self):
        frame = self._frame()
        frame["health"] = {"ok": False, "detail": "1 stale lease(s)"}
        assert "health  : DEGRADED (1 stale lease(s))" in render_status_panel(frame)

    def test_disabled_cache(self):
        frame = self._frame()
        frame["cache"] = {"enabled": False}
        assert "cache   : disabled" in render_status_panel(frame)

    def test_minimal_frame(self):
        panel = render_status_panel({"role": "worker", "endpoint": "h:1"})
        assert panel == "worker h:1"
