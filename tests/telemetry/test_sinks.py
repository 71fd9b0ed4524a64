"""Sink round-trips: memory, JSONL append/load, null."""

import json
import threading

import pytest

from repro.telemetry import (
    NULL_SINK,
    JsonlSink,
    MemorySink,
    NullSink,
    Telemetry,
    load_jsonl,
)


class TestNullSink:
    def test_write_is_noop(self):
        NULL_SINK.write({"kind": "point"})
        NULL_SINK.flush()
        NULL_SINK.close()

    def test_singleton_identity_is_the_disabled_check(self):
        assert Telemetry().sink is NULL_SINK
        assert Telemetry(NullSink()).enabled  # a *different* instance counts


class TestMemorySink:
    def test_records_accumulate_in_order(self):
        sink = MemorySink()
        sink.write({"kind": "point", "name": "a"})
        sink.write({"kind": "point", "name": "b"})
        assert [r["name"] for r in sink.records] == ["a", "b"]


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write({"kind": "point", "name": "x", "fields": {"t": 1}})
        sink.write({"kind": "counter", "name": "c", "value": 2})
        sink.close()
        records = list(load_jsonl(path))
        assert len(records) == 2
        assert records[0]["name"] == "x"
        assert records[1]["value"] == 2

    def test_appends_across_reopen(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        first = JsonlSink(path)
        first.write({"kind": "point", "name": "a"})
        first.close()
        second = JsonlSink(path)
        second.write({"kind": "point", "name": "b"})
        second.close()
        assert [r["name"] for r in load_jsonl(path)] == ["a", "b"]

    def test_lazy_open_creates_no_file_until_write(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        JsonlSink(path)
        assert not path.exists()

    def test_through_telemetry_registry(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tel = Telemetry(sink)
        with tel.span("s", id_parts=[1]):
            tel.event("e", t=0)
        tel.flush()
        sink.close()
        kinds = [r["kind"] for r in load_jsonl(path)]
        assert kinds == ["span-start", "point", "span-end"]

    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tel = Telemetry(sink)
        tel.observe("h", 0.25)
        tel.count("c")
        tel.flush()
        sink.close()
        for line in path.read_text().splitlines():
            json.loads(line)


class TestLoadJsonl:
    def test_invalid_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "point"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            list(load_jsonl(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            list(load_jsonl(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "point", "name": "a"}\n\n')
        assert len(list(load_jsonl(path))) == 1


class TestJsonlSinkConcurrentWriters:
    """Threaded writers through one sink: no torn or interleaved lines."""

    def test_every_record_lands_whole(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        writers, per_writer = 8, 50

        def pump(writer_id):
            for i in range(per_writer):
                sink.write(
                    {"kind": "point", "name": f"w{writer_id}", "fields": {"i": i}}
                )

        threads = [
            threading.Thread(target=pump, args=(w,)) for w in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        records = list(load_jsonl(path))
        assert len(records) == writers * per_writer
        # Each writer's records arrive whole and in its own order.
        for w in range(writers):
            mine = [r["fields"]["i"] for r in records if r["name"] == f"w{w}"]
            assert mine == list(range(per_writer))

    def test_concurrent_registry_counts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tel = Telemetry(sink)

        def pump():
            for _ in range(100):
                tel.count("c")
                tel.event("e")

        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tel.flush()
        sink.close()
        assert tel.counters()["c"] == 400
        kinds = [r["kind"] for r in load_jsonl(path)]
        assert kinds.count("counter") == 400
        assert kinds.count("point") == 400


class TestLoadWhileGrowing:
    """Reading a trace that another process is still appending to."""

    def test_partial_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "point", "name": "a"}\n{"kind": "poi')
        records = list(load_jsonl(path))
        assert [r["name"] for r in records] == ["a"]

    def test_partial_tail_non_object_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "point", "name": "a"}\n[1, 2')
        assert len(list(load_jsonl(path))) == 1

    def test_partial_tail_complete_json_but_no_newline_kept(self, tmp_path):
        # A final line that *parses* is a finished record whose newline
        # simply has not flushed yet — keep it.
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "point", "name": "a"}\n{"kind": "point", "name": "b"}')
        assert [r["name"] for r in load_jsonl(path)] == ["a", "b"]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"bad\n{"kind": "point", "name": "a"}\n')
        with pytest.raises(ValueError, match="line 1"):
            list(load_jsonl(path))

    def test_terminated_corrupt_final_line_still_raises(self, tmp_path):
        # The newline means the writer *finished* the line: real corruption.
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "point", "name": "a"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            list(load_jsonl(path))

    def test_load_traces_tolerates_growing_file(self, tmp_path):
        from repro.telemetry import load_traces

        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "point", "name": "a"}\n{"kind": "torn')
        records = load_traces([path])
        assert [r["name"] for r in records] == ["a"]

    def test_load_traces_growing_reads_are_monotonic(self, tmp_path):
        # Simulate an appender: every prefix of a growing file loads
        # cleanly and yields a prefix of the final record list.
        full = "".join(
            json.dumps({"kind": "point", "name": f"r{i}"}) + "\n" for i in range(5)
        )
        path = tmp_path / "t.jsonl"
        seen = 0
        for cut in range(1, len(full) + 1):
            path.write_text(full[:cut])
            records = list(load_jsonl(path))
            assert len(records) >= seen
            names = [r["name"] for r in records]
            assert names == [f"r{i}" for i in range(len(names))]
            seen = len(records)
        assert seen == 5
