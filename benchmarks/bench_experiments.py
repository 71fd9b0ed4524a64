"""Benchmark: every registered experiment (E1–E17) at quick scale.

Each case regenerates one of the paper's tables/figures (as registered
in repro.experiments.registry; ``repro list``) under timing and asserts
its shape checks, so a run doubles as a reproduction audit.  Untimed
(``--benchmark-disable``) it runs the whole suite at quick scale.
"""

import pytest
from conftest import run_and_check

from repro.experiments import EXPERIMENTS


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_bench_experiment(benchmark, experiment_id):
    result = benchmark.pedantic(
        run_and_check, args=(experiment_id,), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.all_passed
    assert result.tables
