"""Self-tests of the benchmark, on the reduced ``--size small`` workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Every case runs ``perfbench/run.py`` as the benchmark driver would, so
each takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("cobra-pool", "bips-broker", "adversary-rewire")

#: Per-layer counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "graphs.neighbor_draws",
    "graphs.csr_builds",
    "dynamics.snapshots",
    "engine.rounds",
    "parallel.shards",
    "wire.task_bytes",
    "wire.result_bytes",
)


def _run(workload, *, trace=0, seconds=1, seed=3, inject=None, root=ROOT):
    env = dict(os.environ)
    env.pop("PERFBENCH_INJECT_SLEEP", None)
    if inject is not None:
        env["PERFBENCH_INJECT_SLEEP"] = inject
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--size", "small",
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=170,
    )


@lru_cache(maxsize=None)
def _result(workload, trace=0, seconds=1, inject=None, attempt=0):
    out = _run(workload, trace=trace, seconds=seconds, inject=inject)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def _rate(result) -> float:
    return result["metrics"]["runs_per_s"]["value"]


def _bound(name: str) -> float:
    return next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == name)


def test_benchmark_file_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == [
        "runs_per_s", "setup_s", "cpu_ms_per_run", "peak_rss_mb"
    ]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = _result(workload, trace=trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first = _result(workload, trace=1)["metrics"]
    second = _result(workload, trace=1, attempt=1)["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_each_workload_exercises_its_layer():
    layers = {w: _result(w, trace=1)["metrics"] for w in WORKLOADS}
    assert layers["cobra-pool"]["parallel.shards"]["value"] == 2
    assert layers["cobra-pool"]["dynamics.snapshots"]["value"] == 0
    assert layers["bips-broker"]["wire.frames"]["value"] > 0
    assert layers["bips-broker"]["cache.hit_ratio_cold"]["value"] == 0.0
    assert layers["bips-broker"]["cache.hit_ratio_warm"]["value"] == 1.0
    assert layers["adversary-rewire"]["graphs.csr_builds"]["value"] > 0
    assert layers["adversary-rewire"]["wire.frames"]["value"] == 0


def _flagged(base, slowed) -> bool:
    return _rate(slowed) < _rate(base) * (1.0 - _bound("runs_per_s"))


def test_slow_neighbour_sampling_flags_cobra_pool():
    base = _result("cobra-pool", seconds=3)
    slowed = _result("cobra-pool", seconds=3, inject="Graph.sample_neighbors=0.01")
    assert _flagged(base, slowed)


def test_slow_snapshots_flag_adversary_but_not_broker():
    inject = "GraphSequence.graph_at=0.01"
    assert _flagged(
        _result("adversary-rewire", seconds=3),
        _result("adversary-rewire", seconds=3, inject=inject),
    )
    assert not _flagged(
        _result("bips-broker", seconds=3),
        _result("bips-broker", seconds=3, inject=inject),
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _run("cobra-pool", root=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
