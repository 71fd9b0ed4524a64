"""Benchmark: Table 5 — Lemma 5.4 phase schedule (experiment E12).

Regenerates the experiment's table(s) under timing and asserts its
shape criteria (see ``repro list`` and repro.experiments.registry).
"""

from conftest import run_and_check


def test_bench_e12(benchmark):
    result = benchmark.pedantic(
        run_and_check, args=("E12",), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.all_passed
    assert result.tables
