"""Cross-host trace stitching: context propagation + multi-file trees.

Two halves.  The synthetic half writes client/broker/worker JSONL
files by hand (three pids, explicit span ids) and checks that
``load_traces`` + ``summarize_trace`` reconstruct one rooted tree,
report orphans instead of dropping them, and reject empty or corrupt
inputs with actionable errors.  The live half exercises the
:class:`~repro.telemetry.TraceContext` machinery directly: wire
round-trips, parent fallback for spans opened under an installed
context, and the trace id stamped onto every record.  A forked
two-worker fleet then checks that a worker which leases no shard
still writes a trace file that loads.
"""

import json
import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.distributed import Broker
from repro.distributed.worker import run_worker
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import random_regular_graph
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    TraceContext,
    configure,
    get_telemetry,
    load_jsonl,
    load_traces,
    render_trace,
    summarize_trace,
)


def _record(kind, name, *, pid, span, parent=None, ts=0.0, **extra):
    rec = {"kind": kind, "name": name, "ts": ts, "pid": pid,
           "span": span, "parent": parent}
    rec.update(extra)
    return rec


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _three_host_files(tmp_path):
    """Client, broker, worker traces for one job — three pids, one tree."""
    client = _write_jsonl(tmp_path / "client.jsonl", [
        _record("span-start", "engine.run_sharded", pid=100, span="root1",
                ts=1.0, fields={}),
        _record("span-end", "engine.run_sharded", pid=100, span="root1",
                ts=2.0, wall_s=1.0, cpu_s=0.5, fields={"shards": 2}),
    ])
    broker = _write_jsonl(tmp_path / "broker.jsonl", [
        _record("span-start", "broker.job", pid=200, span="job1",
                parent="root1", ts=1.1, fields={"shards": 2}),
        _record("span-end", "broker.job", pid=200, span="job1",
                parent="root1", ts=1.9, wall_s=0.8, cpu_s=None,
                fields={"state": "done"}),
    ])
    worker = _write_jsonl(tmp_path / "worker.jsonl", [
        _record("span-start", "shard.run", pid=300, span="w1",
                parent="job1", ts=1.2, fields={}),
        _record("span-end", "shard.run", pid=300, span="w1",
                parent="job1", ts=1.5, wall_s=0.3, cpu_s=0.3, fields={}),
        _record("span-start", "shard.run", pid=300, span="w2",
                parent="job1", ts=1.5, fields={}),
        _record("span-end", "shard.run", pid=300, span="w2",
                parent="job1", ts=1.9, wall_s=0.4, cpu_s=0.4, fields={}),
    ])
    return client, broker, worker


def _traced_worker(address, path):
    """A worker process streaming its own trace file, as ``--telemetry``."""
    configure(JsonlSink(path))
    run_worker(address, poll_interval=0.05)


class TestMultiFileStitching:
    def test_three_files_three_pids_one_rooted_tree(self, tmp_path):
        files = _three_host_files(tmp_path)
        summary = summarize_trace(load_traces(files))
        assert summary.pids == [100, 200, 300]
        assert not summary.orphans
        assert len(summary.roots) == 1
        root = summary.roots[0]
        assert root.name == "engine.run_sharded"
        assert [c.name for c in root.children] == ["broker.job"]
        job = root.children[0]
        assert sorted(c.span_id for c in job.children) == ["w1", "w2"]
        # Children are ordered by start timestamp.
        assert [c.span_id for c in job.children] == ["w1", "w2"]

    def test_hop_breakdown_counts_spans_and_pids(self, tmp_path):
        files = _three_host_files(tmp_path)
        summary = summarize_trace(load_traces(files))
        shard = summary.hops["shard.run"]
        assert shard["spans"] == 2
        assert shard["pids"] == 1
        assert shard["wall_total_s"] == pytest.approx(0.7)
        assert summary.hops["broker.job"]["spans"] == 1
        rendered = render_trace(load_traces(files))
        assert "per-hop breakdown" in rendered
        assert "shard.run" in rendered

    def test_file_order_does_not_matter(self, tmp_path):
        client, broker, worker = _three_host_files(tmp_path)
        summary = summarize_trace(load_traces([worker, broker, client]))
        assert len(summary.roots) == 1
        assert summary.roots[0].name == "engine.run_sharded"

    def test_orphans_reported_not_dropped(self, tmp_path):
        _client, _broker, worker = _three_host_files(tmp_path)
        # Summarizing the worker file alone: both shard spans name a
        # parent (job1) that never appears — extra roots, flagged.
        summary = summarize_trace(load_traces([worker]))
        assert len(summary.roots) == 2
        assert len(summary.orphans) == 2
        assert {s.span_id for s in summary.orphans} == {"w1", "w2"}
        rendered = render_trace(load_traces([worker]))
        assert "orphan spans" in rendered
        assert "parent=job1" in rendered

    def test_orphan_counted_in_hops(self, tmp_path):
        _client, _broker, worker = _three_host_files(tmp_path)
        summary = summarize_trace(load_traces([worker]))
        assert summary.hops["shard.run"]["orphans"] == 2


class TestLoadTraceErrors:
    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_traces([tmp_path / "nope.jsonl"])

    def test_empty_file_raises_named_valueerror(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty.jsonl.*empty"):
            load_traces([empty])

    def test_corrupt_line_raises_line_numbered_valueerror(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "counter", "name": "x", "value": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_traces([bad])

    def test_error_in_second_file_still_raised(self, tmp_path):
        ok = _write_jsonl(
            tmp_path / "ok.jsonl",
            [_record("span-start", "a", pid=1, span="s1", fields={})],
        )
        empty = tmp_path / "late.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="late.jsonl"):
            load_traces([ok, empty])


class TestTraceContextWire:
    def test_round_trip_with_parent(self):
        ctx = TraceContext(trace_id="T", parent_span_id="P")
        assert ctx.to_wire() == {"id": "T", "parent": "P"}
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_parent_omitted_when_none(self):
        assert TraceContext(trace_id="T", parent_span_id=None).to_wire() == {
            "id": "T"
        }

    @pytest.mark.parametrize(
        "wire",
        [None, "T", 7, [], {}, {"parent": "P"}, {"id": ""}, {"id": 5}],
    )
    def test_malformed_wire_decodes_to_none(self, wire):
        assert TraceContext.from_wire(wire) is None

    def test_non_string_parent_dropped(self):
        ctx = TraceContext.from_wire({"id": "T", "parent": 9})
        assert ctx == TraceContext(trace_id="T", parent_span_id=None)


class TestContextInstall:
    def test_install_returns_previous_and_stamps_records(self):
        tel = configure(MemorySink())
        ctx = TraceContext(trace_id="T1", parent_span_id="P1")
        assert tel.install_context(ctx) is None
        try:
            tel.count("hits")
            with tel.span("work"):
                pass
        finally:
            assert tel.install_context(None) is ctx
        records = tel.sink.records
        assert records, "sink saw no records"
        assert all(r["trace"] == "T1" for r in records)
        # A span opened with no local parent falls back to the
        # context's parent — the cross-process stitch point.
        start = next(r for r in records if r["kind"] == "span-start")
        assert start["parent"] == "P1"

    def test_local_parent_wins_over_context_parent(self):
        tel = configure(MemorySink())
        prev = tel.install_context(TraceContext("T1", "P1"))
        try:
            with tel.span("outer") as outer:
                with tel.span("inner"):
                    pass
        finally:
            tel.install_context(prev)
        starts = {
            r["name"]: r for r in tel.sink.records if r["kind"] == "span-start"
        }
        assert starts["outer"]["parent"] == "P1"
        assert starts["inner"]["parent"] == outer.span_id

    def test_current_context_advances_parent_to_open_span(self):
        tel = configure(MemorySink())
        prev = tel.install_context(TraceContext("T1", "P1"))
        try:
            assert tel.current_context() == TraceContext("T1", "P1")
            with tel.span("hop") as span:
                assert tel.current_context() == TraceContext("T1", span.span_id)
        finally:
            tel.install_context(prev)

    def test_current_context_derived_from_local_spans(self):
        tel = configure(MemorySink())
        assert tel.current_context() is None
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                ctx = tel.current_context()
                assert ctx == TraceContext(outer.span_id, inner.span_id)

    def test_no_trace_key_without_context(self):
        tel = configure(MemorySink())
        tel.count("hits")
        assert "trace" not in tel.sink.records[0]


class TestRunShardedTracing:
    def test_run_sharded_installs_trace_context(self, tmp_path):
        graph = random_regular_graph(64, 4, rng=3)
        engine = SpreadEngine(CobraRule(make_policy(2)), graph)
        state = np.zeros((8, 64), dtype=bool)
        state[:, 0] = True
        path = tmp_path / "t.jsonl"
        configure(JsonlSink(path), sample_every=1)
        try:
            engine.run_sharded(state, 7, workers=1, max_shard=4)
        finally:
            configure(None)
        records = list(load_jsonl(path))
        traces = {r.get("trace") for r in records}
        # One deterministic trace id on every record of the run.
        assert len(traces) == 1 and None not in traces
        summary = summarize_trace(records)
        roots = [r for r in summary.roots if r.name == "engine.run_sharded"]
        assert len(roots) == 1
        assert not summary.orphans

    def test_run_sharded_trace_id_is_deterministic(self, tmp_path):
        graph = random_regular_graph(64, 4, rng=3)
        engine = SpreadEngine(CobraRule(make_policy(2)), graph)
        state = np.zeros((8, 64), dtype=bool)
        state[:, 0] = True
        ids = []
        for run in range(2):
            path = tmp_path / f"t{run}.jsonl"
            configure(JsonlSink(path), sample_every=1)
            try:
                engine.run_sharded(state, 7, workers=1, max_shard=4)
            finally:
                configure(None)
            ids.append({r["trace"] for r in load_jsonl(path)})
        assert ids[0] == ids[1]

    def test_context_restored_after_run_sharded(self):
        graph = random_regular_graph(64, 4, rng=3)
        engine = SpreadEngine(CobraRule(make_policy(2)), graph)
        state = np.zeros((8, 64), dtype=bool)
        state[:, 0] = True
        tel = configure(MemorySink())
        engine.run_sharded(state, 7, workers=1, max_shard=4)
        assert tel.current_context() is None
        assert get_telemetry().current_span_id() is None


class TestWorkerTrace:
    def test_worker_that_leases_nothing_still_leaves_a_trace(self, tmp_path):
        """One shard, two traced workers: the idle one's file loads too."""
        graph = random_regular_graph(64, 4, rng=3)
        engine = SpreadEngine(CobraRule(make_policy(2)), graph)
        state = np.zeros((8, 64), dtype=bool)
        state[:, 0] = True
        files = [tmp_path / "worker1.jsonl", tmp_path / "worker2.jsonl"]
        fork = mp.get_context("fork")
        with Broker(lease_timeout=15.0) as broker:
            procs = [
                fork.Process(
                    target=_traced_worker, args=(broker.address, path), daemon=True
                )
                for path in files
            ]
            for proc in procs:
                proc.start()
            try:
                engine.run_distributed(state, 7, endpoint=broker.address, cache=None)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not all(
                    path.exists() for path in files
                ):
                    time.sleep(0.05)
                records = load_traces(files)
            finally:
                for proc in procs:
                    proc.terminate()
                for proc in procs:
                    proc.join(timeout=5)
        starts = [r for r in records if r["name"] == "worker.start"]
        assert sorted(r["pid"] for r in starts) == sorted(p.pid for p in procs)
        assert {r["fields"]["endpoint"] for r in starts} == {broker.address}
        assert sum(r["name"] == "worker.lease" for r in records) == 1
