"""Report-generation tests."""

from repro.analysis import PAPER_CLAIMS, generate_report, render_experiment_section
from repro.experiments import (
    Check,
    ExperimentConfig,
    ExperimentResult,
    Table,
    run_experiment,
)


class TestPaperClaims:
    def test_all_experiments_covered(self):
        from repro.experiments import EXPERIMENTS

        assert sorted(PAPER_CLAIMS) == sorted(EXPERIMENTS)

    def test_claims_have_content(self):
        for claim in PAPER_CLAIMS.values():
            assert claim.anchor
            assert claim.claim
            assert claim.shape_criterion


class TestRenderSection:
    def test_section_structure(self):
        result = run_experiment("E4", ExperimentConfig(scale="smoke"))
        text = render_experiment_section(result)
        assert text.startswith("## E4")
        assert "**Paper claim.**" in text
        assert "**Verdicts.**" in text
        assert "✅" in text

    def test_failed_check_rendered(self):
        t = Table(title="demo")
        t.add_row(x=1)
        result = ExperimentResult(
            experiment_id="E1",
            title="demo",
            tables=[t],
            checks=[Check("bad", False, "it broke")],
            notes=["note"],
        )
        text = render_experiment_section(result)
        assert "❌ bad — it broke" in text
        assert "**Notes.**" in text


class TestGenerateReport:
    def test_smoke_report_subset(self):
        config = ExperimentConfig(scale="smoke")
        text = generate_report(config, experiment_ids=["E4", "E10"])
        assert "# EXPERIMENTS" in text
        assert "## E4" in text and "## E10" in text
        assert "| E4 |" in text  # summary row
        assert "PASS" in text

    def test_precomputed_results_used(self):
        result = run_experiment("E4", ExperimentConfig(scale="smoke"))
        text = generate_report(
            ExperimentConfig(scale="smoke"),
            experiment_ids=["E4"],
            results={"E4": result},
        )
        assert "## E4" in text
