"""Consistency between the registry, the report claims, and the benches."""

from pathlib import Path

from repro.analysis import PAPER_CLAIMS
from repro.experiments import EXPERIMENTS

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent.parent / "benchmarks"


def test_every_experiment_has_a_paper_claim():
    assert set(PAPER_CLAIMS) == set(EXPERIMENTS)


def test_every_experiment_has_a_bench_file():
    for experiment_id in EXPERIMENTS:
        num = int(experiment_id[1:])
        bench = BENCHMARKS_DIR / f"bench_e{num:02d}.py"
        assert bench.exists(), f"missing {bench.name}"


def test_bench_files_reference_their_experiment():
    for experiment_id in EXPERIMENTS:
        num = int(experiment_id[1:])
        text = (BENCHMARKS_DIR / f"bench_e{num:02d}.py").read_text()
        assert f'"{experiment_id}"' in text or f"'{experiment_id}'" in text


def test_experiment_ids_match_module_constants():
    for experiment_id, spec in EXPERIMENTS.items():
        assert spec.experiment_id == experiment_id
