"""Benchmark: Table 3 — regular bound (Theorem 1.2) (experiment E3).

Regenerates the experiment's table(s) under timing and asserts its
shape criteria (see ``repro list`` and repro.experiments.registry).
"""

from conftest import run_and_check


def test_bench_e03(benchmark):
    result = benchmark.pedantic(
        run_and_check, args=("E3",), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.all_passed
    assert result.tables
