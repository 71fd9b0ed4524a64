"""Core telemetry contracts: span identity, sampling, aggregation."""

import numpy as np
import pytest

from repro.stats.rng import seed_sequence_from, spawn_seeds
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    configure,
    configure_from_env,
    get_telemetry,
    seed_id_parts,
    span_id_from,
    summarize_values,
)


class TestSpanIds:
    def test_equal_parts_equal_ids(self):
        assert span_id_from("a", 1, [2, 3]) == span_id_from("a", 1, [2, 3])

    def test_different_parts_different_ids(self):
        assert span_id_from("a", 1) != span_id_from("a", 2)
        assert span_id_from("a", 1) != span_id_from("b", 1)

    def test_id_is_16_hex(self):
        sid = span_id_from("shard.run", 7, [0])
        assert len(sid) == 16
        int(sid, 16)

    def test_seed_id_parts_distinguish_shards(self):
        master = seed_sequence_from(123)
        seeds = spawn_seeds(master, 4)
        parts = [seed_id_parts(s) for s in seeds]
        ids = {span_id_from("shard.run", *p) for p in parts}
        assert len(ids) == 4

    def test_seed_id_parts_reproducible(self):
        a = seed_id_parts(spawn_seeds(seed_sequence_from(9), 3)[1])
        b = seed_id_parts(spawn_seeds(seed_sequence_from(9), 3)[1])
        assert a == b
        assert span_id_from("shard.run", *a) == span_id_from("shard.run", *b)

    def test_tuple_and_int_entropy_forms(self):
        # numpy SeedSequence entropy can be an int or a list; both
        # canonicalise without error.
        assert seed_id_parts(np.random.SeedSequence(5))[0] == 5
        parts = seed_id_parts(np.random.SeedSequence([1, 2]))
        assert parts[0] == [1, 2]


class TestSpans:
    def test_nesting_and_parent_links(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        with tel.span("outer", id_parts=[1]) as outer:
            with tel.span("inner", id_parts=[2]) as inner:
                assert tel.current_span_id() == inner.span_id
            assert tel.current_span_id() == outer.span_id
        assert tel.current_span_id() is None
        kinds = [r["kind"] for r in sink.records]
        assert kinds == ["span-start", "span-start", "span-end", "span-end"]
        inner_start = sink.records[1]
        assert inner_start["parent"] == outer.span_id

    def test_annotate_lands_on_span_end(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        with tel.span("s", id_parts=[0]) as span:
            span.annotate(rounds_run=17)
        end = sink.records[-1]
        assert end["kind"] == "span-end"
        assert end["fields"]["rounds_run"] == 17
        assert end["wall_s"] >= 0.0

    def test_error_marked_on_span_end(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        with pytest.raises(RuntimeError):
            with tel.span("s", id_parts=[0]):
                raise RuntimeError("boom")
        assert sink.records[-1]["fields"]["error"] == "RuntimeError"

    def test_anonymous_ids_distinct(self):
        tel = Telemetry(MemorySink())
        assert tel.span("a").span_id != tel.span("a").span_id


class TestSampling:
    def test_stride(self):
        tel = Telemetry(MemorySink(), sample_every=3)
        hits = [t for t in range(10) if tel.sampled(t)]
        assert hits == [0, 3, 6, 9]

    def test_default_every_round(self):
        tel = Telemetry(MemorySink())
        assert all(tel.sampled(t) for t in range(5))


class TestAggregation:
    def test_counters_aggregate_even_disabled(self):
        tel = Telemetry()  # null sink
        assert not tel.enabled
        tel.count("cache.hits")
        tel.count("cache.hits", 2)
        assert tel.counters() == {"cache.hits": 3}

    def test_histograms_summarize(self):
        tel = Telemetry()
        for v in [1.0, 2.0, 3.0, 4.0]:
            tel.observe("lat", v)
        summary = tel.histogram_summary("lat")
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0

    def test_snapshot_and_reset(self):
        tel = Telemetry()
        tel.count("c")
        tel.observe("h", 1.5)
        snap = tel.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["histograms"]["h"]["count"] == 1
        tel.reset()
        assert tel.counters() == {}

    def test_labelled_counter_records_and_trace_summary(self):
        from repro.telemetry import summarize_trace

        sink = MemorySink()
        tel = Telemetry(sink)
        tel.count("broker.worker.completed", worker="conn-1")
        tel.count("broker.worker.completed", 2, worker="conn-1")
        tel.count("broker.queue.completes")
        labelled = [r for r in sink.records if r.get("labels")]
        assert [r["labels"] for r in labelled] == [{"worker": "conn-1"}] * 2
        assert labelled[-1]["total"] == 3
        assert summarize_trace(sink.records).counters == {
            "broker.worker.completed{worker=conn-1}": 3.0,
            "broker.queue.completes": 1.0,
        }

    def test_labelled_counts_from_threads_lose_no_update(self):
        import sys
        import threading

        tel = Telemetry()

        def bump(worker):
            for _ in range(2000):
                tel.count("broker.worker.completed", worker=worker)
                tel.count("broker.queue.completes")

        threads = [
            threading.Thread(target=bump, args=(f"conn-{i % 2}",)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tel.counters() == {
            "broker.worker.completed{worker=conn-0}": 8000,
            "broker.worker.completed{worker=conn-1}": 8000,
            "broker.queue.completes": 16000,
        }

    def test_summarize_values_empty_is_none(self):
        assert summarize_values([]) is None


class TestNullSinkOverhead:
    def test_disabled_emits_nothing(self):
        sink = MemorySink()
        tel = Telemetry()  # NULL sink
        tel.event("x", a=1)
        tel.observe("h", 1.0)
        tel.count("c")
        assert sink.records == []
        assert not tel.enabled

    def test_null_path_is_cheap_smoke(self):
        # Not a benchmark — just pins that the disabled path stays a
        # branch + counter update, with no record construction.
        import time

        tel = Telemetry()
        t0 = time.perf_counter()
        for t in range(20_000):
            if tel.enabled and tel.sampled(t):  # the engine's guard
                tel.event("engine.round", t=t)
        assert time.perf_counter() - t0 < 1.0


class TestConfigure:
    def test_configure_swaps_global(self):
        sink = MemorySink()
        tel = configure(sink, sample_every=2)
        assert get_telemetry() is tel
        assert tel.enabled
        assert tel.sample_every == 2

    def test_configure_none_disables(self):
        configure(MemorySink())
        tel = configure(None)
        assert not tel.enabled

    def test_configure_closes_the_sink_it_replaces(self, tmp_path):
        path = tmp_path / "replaced.jsonl"
        replaced = JsonlSink(path)
        configure(replaced).event("before.swap")
        assert replaced._file is not None
        configure(MemorySink())
        # Closed, with the record on disk; a later write reopens it.
        assert replaced._file is None
        assert path.read_text().count("before.swap") == 1
        replaced.write({"kind": "late"})
        replaced.close()
        assert path.read_text().count("\n") == 2
        configure(None)

    def test_env_disabling_values(self, monkeypatch, tmp_path):
        for off in ("", "0", "off", "OFF"):
            monkeypatch.setenv("REPRO_TELEMETRY", off)
            assert not configure_from_env().enabled

    def test_env_path_enables_jsonl(self, monkeypatch, tmp_path):
        path = tmp_path / "t.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(path))
        monkeypatch.setenv("REPRO_TELEMETRY_SAMPLE", "4")
        tel = configure_from_env()
        assert tel.enabled
        assert tel.sample_every == 4

    def test_explicit_path_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        tel = configure_from_env(str(tmp_path / "cli.jsonl"))
        assert tel.enabled

    def test_unset_env_leaves_registry_alone(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        before = configure(MemorySink())
        assert configure_from_env() is before

    def test_bad_sample_env_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_TELEMETRY_SAMPLE", "three")
        with pytest.raises(ValueError):
            configure_from_env()
