"""Config and runner plumbing tests."""

import pytest

from repro.experiments import Check, ExperimentConfig, ExperimentResult, Table
from repro.experiments.runner import measure_cover
from repro.graphs import complete_graph


class TestConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert c.scale == "quick"
        assert c.n_workers == 1

    def test_scale_picks(self):
        c = ExperimentConfig(scale="smoke")
        assert c.runs(1, 2, 3) == 1
        assert c.pick("a", "b", "c") == "a"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale="huge")
        with pytest.raises(ValueError):
            ExperimentConfig(n_workers=0)


class TestExperimentResult:
    def test_all_passed(self):
        r = ExperimentResult(
            experiment_id="EX",
            title="t",
            checks=[Check("a", True, "ok"), Check("b", True, "ok")],
        )
        assert r.all_passed
        r.checks.append(Check("c", False, "bad"))
        assert not r.all_passed

    def test_render_contains_everything(self):
        t = Table(title="data")
        t.add_row(x=1)
        r = ExperimentResult(
            experiment_id="EX",
            title="demo",
            tables=[t],
            checks=[Check("crit", True, "fine")],
            notes=["a note"],
        )
        out = r.render()
        assert "EX: demo" in out
        assert "== data ==" in out
        assert "[PASS] crit" in out
        assert "a note" in out

    def test_check_str(self):
        assert "[FAIL] x: why" in str(Check("x", False, "why"))


class TestMeasureCover:
    def test_basic(self):
        meas = measure_cover(complete_graph(8), runs=20, seed=1)
        assert meas.n == 8
        assert meas.runs == 20
        assert meas.mean.value >= 3.0  # log2(8)
        assert meas.whp.value >= meas.mean.value - 1e-9

    def test_deterministic(self):
        a = measure_cover(complete_graph(8), runs=10, seed=5)
        b = measure_cover(complete_graph(8), runs=10, seed=5)
        assert a.mean.value == b.mean.value
