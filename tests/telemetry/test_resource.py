"""Resource profiling: one-shot snapshots and their scrape-time gauges."""

import os

from repro.telemetry import (
    MetricsServer,
    max_rss_bytes,
    parse_prometheus,
    resource_snapshot,
)
from repro.telemetry.resource import (
    cpu_seconds,
    current_rss_bytes,
    gc_collection_counts,
    open_fd_count,
)


class TestReaders:
    def test_max_rss_is_positive_bytes(self):
        rss = max_rss_bytes()
        assert rss is not None
        # A Python process with numpy loaded holds well over 4 MiB, and
        # a KiB/bytes unit mixup would land an order of magnitude off.
        assert rss > 4 * 1024 * 1024

    def test_current_rss_close_to_peak(self):
        current = current_rss_bytes()
        if current is None:  # no /proc on this platform
            return
        assert 0 < current

    def test_cpu_seconds_nonnegative_pair(self):
        cpu = cpu_seconds()
        assert cpu is not None
        user, system = cpu
        assert user >= 0.0 and system >= 0.0

    def test_open_fd_count(self):
        fds = open_fd_count()
        if fds is None:
            return
        base = fds
        handle = open(os.devnull)
        try:
            assert open_fd_count() == base + 1
        finally:
            handle.close()

    def test_gc_collection_counts_per_generation(self):
        counts = gc_collection_counts()
        assert len(counts) >= 1
        assert all(isinstance(c, int) and c >= 0 for c in counts)


class TestResourceSnapshot:
    def test_keys_and_types(self):
        snap = resource_snapshot()
        assert snap["pid"] == os.getpid()
        assert snap["max_rss_bytes"] > 0
        assert snap["cpu_user_s"] >= 0.0
        assert isinstance(snap["gc_collections"], list)

    def test_json_serialisable(self):
        import json

        json.dumps(resource_snapshot())


class TestScrapeReadsResources:
    def test_bare_server_serves_process_gauges(self):
        import urllib.request

        with MetricsServer(port=0) as server:
            url = f"http://{server.address}/metrics"
            with urllib.request.urlopen(url, timeout=2.0) as response:
                body = response.read().decode("utf-8")
        families = parse_prometheus(body)
        assert families["process_rss_bytes"][()] > 0
        assert families["process_cpu_user_seconds"][()] >= 0
        assert families["process_gc_collections"][(("generation", "0"),)] >= 0
