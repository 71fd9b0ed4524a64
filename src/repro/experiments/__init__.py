"""Experiment harness: the E1..E17 suite (``repro list``; see :mod:`.registry`)."""

from .config import SCALES, ExperimentConfig
from .registry import EXPERIMENTS, ExperimentSpec, get_experiment, run_experiment
from .runner import Check, ExperimentResult, measure_cover
from .tables import Table

__all__ = [
    "SCALES",
    "ExperimentConfig",
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "run_experiment",
    "Check",
    "ExperimentResult",
    "measure_cover",
    "Table",
]
