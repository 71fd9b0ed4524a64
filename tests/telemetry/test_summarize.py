"""Trace reconstruction and rendering (`repro trace summarize`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    load_trace,
    render_trace,
    summarize_trace,
)


def _traced_run():
    """A small two-level trace with events, counters and histograms."""
    sink = MemorySink()
    tel = Telemetry(sink, sample_every=1)
    with tel.span("engine.run_sharded", id_parts=[7], shards=2):
        for shard in range(2):
            with tel.span("shard.run", id_parts=[7, shard]) as span:
                tel.event("engine.round", t=0)
                tel.observe("engine.round.seconds", 0.001 * (shard + 1))
                span.annotate(rounds_run=5)
        tel.count("client.cache.misses", 2)
    return sink.records


class TestSummarizeTrace:
    def test_span_tree_shape(self):
        summary = summarize_trace(_traced_run())
        assert len(summary.roots) == 1
        root = summary.roots[0]
        assert root.name == "engine.run_sharded"
        assert [c.name for c in root.children] == ["shard.run", "shard.run"]
        assert {c.span_id for c in root.children} != {root.span_id}

    def test_timings_and_fields_attached(self):
        summary = summarize_trace(_traced_run())
        for child in summary.roots[0].children:
            assert child.wall_s is not None
            assert child.fields["rounds_run"] == 5
            assert child.points == 1

    def test_counters_and_histograms_aggregate(self):
        summary = summarize_trace(_traced_run())
        assert summary.counters == {"client.cache.misses": 2}
        hist = summary.histograms["engine.round.seconds"]
        assert hist["count"] == 2
        assert hist["min"] == pytest.approx(0.001)
        assert hist["max"] == pytest.approx(0.002)
        assert summary.points == {"engine.round": 2}

    def test_orphan_span_becomes_root(self):
        records = [
            {"kind": "span-end", "name": "lonely", "span": "abc",
             "parent": "never-seen", "wall_s": 0.1, "cpu_s": 0.1,
             "fields": {}},
        ]
        summary = summarize_trace(records)
        names = {root.name for root in summary.roots}
        assert "lonely" in names

    def test_record_count_and_pids(self):
        records = _traced_run()
        summary = summarize_trace(records)
        assert summary.records == len(records)
        assert len(summary.pids) == 1


class TestRenderTrace:
    def test_render_contains_tree_and_sections(self):
        text = render_trace(_traced_run())
        assert "engine.run_sharded" in text
        assert "shard.run" in text
        assert "counters:" in text
        assert "client.cache.misses" in text
        assert "histograms" in text
        assert "engine.round.seconds" in text

    def test_indentation_reflects_nesting(self):
        text = render_trace(_traced_run())
        lines = text.splitlines()
        parent = next(i for i, l in enumerate(lines) if "engine.run_sharded" in l)
        child = next(i for i, l in enumerate(lines) if "shard.run" in l)
        parent_indent = len(lines[parent]) - len(lines[parent].lstrip())
        child_indent = len(lines[child]) - len(lines[child].lstrip())
        assert child > parent
        assert child_indent > parent_indent

    def test_render_from_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        for record in _traced_run():
            sink.write(record)
        sink.close()
        assert render_trace(str(path)) == render_trace(load_trace(path))

    def test_empty_trace_renders(self):
        text = render_trace([])
        assert "0 records" in text
        assert "(none)" in text


class TestCliTraceCommand:
    def test_summarize_exits_zero_on_valid(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        for record in _traced_run():
            sink.write(record)
        sink.close()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out

    def test_summarize_into_a_closed_pipe_exits_zero(self, tmp_path):
        # ``repro trace summarize FILE | head -1``: the reader is gone
        # before the summary is written.
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        for record in _traced_run():
            sink.write(record)
        sink.close()
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "summarize", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_summarize_exits_nonzero_on_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["trace", "summarize", str(path)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_summarize_exits_nonzero_on_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 1
