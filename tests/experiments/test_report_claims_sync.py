"""Consistency between the registry, the report claims, and the benches."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis import PAPER_CLAIMS
from repro.experiments import EXPERIMENTS

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent.parent / "benchmarks"


def test_every_experiment_has_a_paper_claim():
    assert set(PAPER_CLAIMS) == set(EXPERIMENTS)


@pytest.fixture
def bench_ids(monkeypatch):
    """The experiment ids ``bench_experiments.py`` is parametrized over."""
    # The bench's ``from conftest import`` means the benchmarks' conftest.
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    monkeypatch.delitem(sys.modules, "conftest", raising=False)
    spec = importlib.util.spec_from_file_location(
        "bench_experiments", BENCHMARKS_DIR / "bench_experiments.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (mark,) = bench.test_bench_experiment.pytestmark
    return list(mark.args[1])


def test_every_experiment_has_a_bench_file(bench_ids):
    assert set(bench_ids) == set(EXPERIMENTS)


def test_bench_files_reference_their_experiment(bench_ids):
    # One case per experiment, and no per-experiment file beside it.
    assert len(bench_ids) == len(set(bench_ids)) == len(EXPERIMENTS)
    assert not list(BENCHMARKS_DIR.glob("bench_e[0-9]*.py"))


def test_experiment_ids_match_module_constants():
    for experiment_id, spec in EXPERIMENTS.items():
        assert spec.experiment_id == experiment_id
