"""Shared benchmark helpers.

``bench_experiments.py`` regenerates each of the paper's tables/figures
(as registered in repro.experiments.registry; ``repro list``) under
pytest-benchmark timing.  The benchmarked callable is the experiment's
full measurement pipeline at ``quick`` scale; each case also asserts
the experiment's shape checks so a benchmark run doubles as a
reproduction audit.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig, run_experiment

AUDIT_CONFIG = ExperimentConfig(scale="quick", seed=20170724)


def run_and_check(experiment_id: str):
    """Run one experiment and fail the bench if any shape check fails."""
    result = run_experiment(experiment_id, AUDIT_CONFIG)
    failing = [c for c in result.checks if not c.passed]
    assert not failing, f"{experiment_id} checks failed: {[str(c) for c in failing]}"
    return result


@pytest.fixture
def bench_config() -> ExperimentConfig:
    return AUDIT_CONFIG
