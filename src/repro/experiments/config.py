"""Experiment configuration: seeds, scale presets, and run budgets.

Every experiment accepts one :class:`ExperimentConfig`.  The ``scale``
preset trades statistical resolution for wall-clock time:

* ``smoke`` — seconds; used by the integration tests.
* ``quick`` — tens of seconds; the default for interactive runs and the
  pytest-benchmark harness.
* ``full``  — minutes; paper-grade sample counts and sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentConfig", "SCALES"]

SCALES = ("smoke", "quick", "full")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes
    ----------
    seed:
        Master seed; all randomness is spawned from it.
    scale:
        One of :data:`SCALES`.
    n_workers:
        Worker processes for sweep-level parallelism (1 = serial).
    """

    seed: int = 20170724  # SPAA'17 conference date
    scale: str = "quick"
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale!r}")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")

    def runs(self, smoke: int, quick: int, full: int) -> int:
        """Pick a per-scale run budget."""
        return {"smoke": smoke, "quick": quick, "full": full}[self.scale]

    def pick(self, smoke, quick, full):
        """Pick any per-scale value (sizes, grids, horizons...)."""
        return {"smoke": smoke, "quick": quick, "full": full}[self.scale]
