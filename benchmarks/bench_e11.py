"""Benchmark: Figure 7 — family scaling panel (experiment E11).

Regenerates the experiment's table(s) under timing and asserts its
shape criteria (see ``repro list`` and repro.experiments.registry).
"""

from conftest import run_and_check


def test_bench_e11(benchmark):
    result = benchmark.pedantic(
        run_and_check, args=("E11",), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.all_passed
    assert result.tables
