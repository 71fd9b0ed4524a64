"""Benchmark: Figure 6 — Azuma/Corollary 2.2 concentration (experiment E10).

Regenerates the experiment's table(s) under timing and asserts its
shape criteria (see ``repro list`` and repro.experiments.registry).
"""

from conftest import run_and_check


def test_bench_e10(benchmark):
    result = benchmark.pedantic(
        run_and_check, args=("E10",), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.all_passed
    assert result.tables
