"""Registry tests + the smoke-scale integration run of every experiment.

These are the repository's end-to-end tests: each E-module must run at
smoke scale, produce tables, and pass all of its shape checks.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    get_experiment,
    run_experiment,
)

SMOKE = ExperimentConfig(scale="smoke", seed=20170724)


class TestRegistry:
    def test_all_seventeen_registered(self):
        # E1..E12 reproduce the paper; E13-E17 are extensions
        # (design ablations, the dynamic-graph suite, and the
        # adversarial-dynamics suite).
        assert len(EXPERIMENTS) == 17
        assert sorted(EXPERIMENTS) == sorted(f"E{i}" for i in range(1, 18))

    def test_lookup_case_insensitive(self):
        assert get_experiment("e4").experiment_id == "E4"

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="known"):
            get_experiment("E99")

    def test_specs_have_anchors(self):
        for spec in EXPERIMENTS.values():
            assert spec.paper_anchor
            assert spec.title


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS, key=lambda k: int(k[1:])))
def test_experiment_smoke_run_passes(experiment_id):
    """Every experiment runs at smoke scale with all shape checks green."""
    result = run_experiment(experiment_id, SMOKE)
    assert result.experiment_id == experiment_id
    assert result.tables, "experiment produced no tables"
    assert all(t.rows for t in result.tables), "an output table is empty"
    failing = [c for c in result.checks if not c.passed]
    assert not failing, f"failing checks: {[str(c) for c in failing]}"


def test_experiment_deterministic():
    """Same config => identical tables (the seeding contract)."""
    a = run_experiment("E1", SMOKE)
    b = run_experiment("E1", SMOKE)
    assert a.tables[0].rows == b.tables[0].rows
