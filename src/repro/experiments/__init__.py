"""Experiment harness: the E1..E17 suite (``repro list``; see :mod:`.registry`)."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "config": ["SCALES", "ExperimentConfig"],
        "registry": ["EXPERIMENTS", "ExperimentSpec", "get_experiment", "run_experiment"],
        "runner": ["Check", "ExperimentResult", "measure_cover"],
        "tables": ["Table"],
    },
)
