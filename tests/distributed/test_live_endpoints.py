"""The live plane end-to-end: a 2-worker fleet with exporters on.

The acceptance contract: with ``--metrics-port`` enabled on the broker
and every worker, ``GET /metrics`` on broker *and* worker returns
exposition text the strict round-trip parser accepts, ``/healthz``
reports live, ``/statusz`` carries per-worker throughput and RSS, and
``repro top --once`` renders both.  That results stay bit-identical
with exporters on is the oracle's broker tier (``tests/test_oracle.py``).
"""

import socket
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.branching import make_policy
from repro.distributed import Broker, ResultCache, broker_status
from repro.distributed.worker import run_worker
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import random_regular_graph
from repro.telemetry import fetch_statusz, parse_prometheus

RUNS = 40
MAX_SHARD = 8


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _scrape(address: str) -> dict:
    with urllib.request.urlopen(f"http://{address}/metrics", timeout=5) as r:
        assert r.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        return parse_prometheus(r.read().decode("utf-8"))


class _LiveFleet:
    """Broker + two in-process workers, all serving HTTP endpoints."""

    def __init__(self, broker, metrics_server, worker_ports, threads):
        self.broker = broker
        self.address = broker.address
        self.metrics_address = metrics_server.address
        self.worker_addresses = [f"127.0.0.1:{p}" for p in worker_ports]
        self.threads = threads


@pytest.fixture(scope="module")
def live_fleet():
    with Broker(lease_timeout=15.0) as broker:
        server = broker.serve_metrics(0)
        ports = [_free_port(), _free_port()]
        threads = [
            threading.Thread(
                target=run_worker,
                args=(broker.address,),
                kwargs=dict(
                    poll_interval=0.05, connect_retries=0, metrics_port=port
                ),
                daemon=True,
            )
            for port in ports
        ]
        for thread in threads:
            thread.start()
        fleet = _LiveFleet(broker, server, ports, threads)
        yield fleet
        server.stop()
    # Broker gone: workers see EOF, fail the single re-dial, exit.
    for thread in threads:
        thread.join(timeout=10)


def _run_job(fleet):
    """One COBRA job on the fleet, so every surface has counts to show."""
    graph = random_regular_graph(24, 4, rng=11)
    engine = SpreadEngine(CobraRule(make_policy(2)), graph)
    state = np.zeros((RUNS, graph.n), dtype=bool)
    state[:, 0] = True
    engine.run_distributed(
        state,
        123,
        endpoint=fleet.address,
        track_hits=True,
        max_shard=MAX_SHARD,
        cache=None,
    )


class TestLiveFleet:
    def test_broker_metrics_parse_with_required_families(self, live_fleet):
        _run_job(live_fleet)
        families = _scrape(live_fleet.metrics_address)
        for family in (
            "broker_jobs",
            "broker_shards_pending",
            "broker_shards_done",
            "broker_stale_leases",
            "broker_queue_leases",
            "broker_queue_completes",
            "broker_wait_seconds_p50",
            "broker_wait_seconds_count",
            "broker_exec_seconds_p99",
        ):
            assert family in families, family
        # Per-worker throughput is a labelled series, one per connection.
        throughput = families["broker_worker_throughput"]
        assert len(throughput) >= 1
        assert all(labels and labels[0][0] == "worker" for labels in throughput)
        rss = families["broker_worker_max_rss_bytes"]
        assert all(value > 0 for value in rss.values())
        # Resource gauges of the broker process, read at scrape time.
        assert families["process_rss_bytes"][()] > 0

    def test_counts_agree_across_surfaces(self, live_fleet):
        # One registry behind /metrics, /statusz and the TCP status reply.
        _run_job(live_fleet)
        families = _scrape(live_fleet.metrics_address)
        statusz = fetch_statusz(live_fleet.metrics_address)["metrics"]
        tcp = broker_status(live_fleet.address)["metrics"]
        for key in ("completes", "leases"):
            scraped = families[f"broker_queue_{key}"][()]
            assert scraped > 0
            assert scraped == statusz[key] == tcp[key], key

    def test_worker_metrics_parse_on_both_workers(self, live_fleet):
        _run_job(live_fleet)
        for address in live_fleet.worker_addresses:
            families = _scrape(address)
            # The process registry is shared in-process here, so the
            # counter covers both; each scrape reads the resource gauges.
            assert families["worker_completed"][()] > 0
            assert families["process_rss_bytes"][()] > 0
            assert families["process_cpu_user_seconds"][()] >= 0

    def test_broker_healthz_live(self, live_fleet):
        url = f"http://{live_fleet.metrics_address}/healthz"
        with urllib.request.urlopen(url, timeout=5) as response:
            assert response.status == 200
            body = response.read().decode("utf-8")
        assert '"ok": true' in body
        assert '"sweeper_alive": true' in body

    def test_broker_statusz_per_worker_stats(self, live_fleet):
        _run_job(live_fleet)
        payload = fetch_statusz(live_fleet.metrics_address)
        assert payload["role"] == "broker"
        assert payload["health"]["ok"] is True
        workers = payload["metrics"]["workers"]
        assert workers
        for stats in workers.values():
            assert stats["throughput"] >= 0
            assert stats["max_rss"] > 0
        assert payload["resources"]["max_rss_bytes"] > 0
        # Clients own the result cache and count their own client.* and
        # retry.* events; the broker's frame carries neither.
        assert "counters" not in payload
        assert "cache" not in payload

    def test_worker_statusz_frame(self, live_fleet):
        _run_job(live_fleet)
        payload = fetch_statusz(live_fleet.worker_addresses[0])
        assert payload["role"] == "worker"
        assert payload["endpoint"] == live_fleet.address
        assert payload["counters"].get("worker.completed", 0) > 0
        assert payload["resources"]["rss_bytes"] > 0

    def test_repro_top_once_renders_throughput_and_rss(self, live_fleet, capsys):
        _run_job(live_fleet)
        code = cli_main(["top", live_fleet.metrics_address, "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard/s" in out  # per-worker throughput
        assert "rss=" in out  # per-worker RSS
        assert "queue   :" in out

    def test_repro_top_shows_no_cache_for_a_broker(
        self, live_fleet, capsys, tmp_path, monkeypatch
    ):
        # The broker process's own REPRO_CACHE_DIR is a store it never
        # reads or writes, so its panel must not report it.
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        store.put("ab" * 32, {"kind": "result"})
        assert len(store) == 1
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store.root))
        code = cli_main(["top", live_fleet.metrics_address, "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "queue   :" in out
        assert "cache   :" not in out

    def test_repro_top_mixed_live_and_dead(self, live_fleet, capsys):
        code = cli_main(
            ["top", live_fleet.metrics_address, "127.0.0.1:1", "--once"]
        )
        out = capsys.readouterr().out
        assert code == 0  # degrade gracefully without --fail-on-dead
        assert "unreachable" in out

    def test_repro_top_fail_on_dead(self, live_fleet, capsys):
        code = cli_main(
            ["top", "127.0.0.1:1", "--once", "--fail-on-dead"]
        )
        assert code == 1

    def test_repro_status_against_broker_tcp(self, live_fleet, capsys):
        _run_job(live_fleet)
        code = cli_main(["status", live_fleet.address])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("broker ")
        assert "traffic :" in out and "shard/s" in out
