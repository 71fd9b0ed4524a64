"""Trajectory ensembles: aligned multi-run time series with quantile bands.

The "figure"-style experiments (growth curves, phase schedules) need
many runs' ``|A_t|`` / ``|C_t|`` / visited-count series aligned on a
common round axis with mean and quantile bands.  Runs end at different
rounds, so series are padded with their terminal value (the infected
set stays full; the visited count stays ``n``), which is the correct
continuation for monotone-terminal processes.

Collection is one pass through the batched engine: all runs advance
together with per-round recording switched on
(``record_sizes`` / ``record_visited`` in
:meth:`repro.engine.SpreadEngine.run` — merged across shards by
:meth:`~repro.engine.SpreadEngine.run_sharded`), instead of the
historical one-run-at-a-time re-execution of the process per
experiment.  The engine's freeze/padding semantics already implement
the terminal-value convention, so the recorded block *is* the aligned
ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.engine import SpreadEngine
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex
from .bips import BipsProcess
from .branching import BranchingPolicy
from .cobra import CobraProcess

__all__ = [
    "TrajectoryEnsemble",
    "bips_size_ensemble",
    "cobra_coverage_ensemble",
]


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """``runs × (horizon + 1)`` aligned series plus summary accessors."""

    label: str
    series: np.ndarray  # (runs, horizon + 1)

    @property
    def runs(self) -> int:
        """Number of runs in the ensemble."""
        return self.series.shape[0]

    @property
    def horizon(self) -> int:
        """Largest round index on the common axis."""
        return self.series.shape[1] - 1

    def mean(self) -> np.ndarray:
        """Per-round ensemble mean."""
        return self.series.mean(axis=0)

    def quantile(self, q: float) -> np.ndarray:
        """Per-round ensemble quantile."""
        return np.quantile(self.series, q, axis=0)

    def band(self, lo: float = 0.05, hi: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
        """A (lower, upper) quantile band — the shaded region of a figure."""
        return self.quantile(lo), self.quantile(hi)


def bips_size_ensemble(
    graph: Graph,
    source: int = 0,
    runs: int = 50,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    seed=0,
    workers: int | None = None,
    endpoint: str | None = None,
) -> TrajectoryEnsemble:
    """Ensemble of BIPS infection-size series ``|A_t|``.

    One recorded pass of the batched engine; a finished run's row
    continues at ``n``, the engine's freeze value.  ``workers`` fans
    the pass out over processes (``None`` = serial, like the sampling
    wrappers; the series are identical at any count), ``endpoint``
    over a :mod:`repro.distributed` broker's workers.  Raises if any
    run hits the round cap.
    """
    proc = BipsProcess(graph, source, branching, lazy=lazy)
    state = np.zeros((int(runs), graph.n), dtype=bool)
    state[:, proc.source] = True
    res = SpreadEngine(proc.rule, graph).run_sharded(
        state,
        seed,
        workers=1 if workers is None else workers,
        record_sizes=True,
        endpoint=endpoint,
    )
    if not res.all_finished:
        raise RuntimeError(f"BIPS hit the round cap on {graph.name}")
    return TrajectoryEnsemble(
        label=f"bips-sizes:{graph.name}",
        series=res.sizes.astype(np.float64),
    )


def cobra_coverage_ensemble(
    graph: Graph,
    start: int = 0,
    runs: int = 50,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    seed=0,
    workers: int | None = None,
    endpoint: str | None = None,
) -> TrajectoryEnsemble:
    """Ensemble of COBRA cumulative-coverage series ``|∪_{s<=t} C_s|``.

    One recorded pass of the batched engine; the visited count is
    monotone, so terminal-value continuation at ``n`` is exact.
    ``workers`` / ``endpoint`` as in :func:`bips_size_ensemble`.
    Raises if any run hits the round cap.
    """
    proc = CobraProcess(graph, branching, lazy=lazy)
    state = np.zeros((int(runs), graph.n), dtype=bool)
    state[:, check_vertex(graph, start)] = True
    res = SpreadEngine(proc.rule, graph).run_sharded(
        state,
        seed,
        workers=1 if workers is None else workers,
        record_visited=True,
        endpoint=endpoint,
    )
    if not res.all_finished:
        raise RuntimeError(f"COBRA hit the round cap on {graph.name}")
    return TrajectoryEnsemble(
        label=f"cobra-coverage:{graph.name}",
        series=res.visited_counts.astype(np.float64),
    )
