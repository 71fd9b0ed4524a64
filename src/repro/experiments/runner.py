"""Experiment result containers and the shared measurement helpers.

An experiment's ``run(config)`` returns an :class:`ExperimentResult`:
one or more :class:`~repro.experiments.tables.Table` objects (the
regenerated "table/figure" data) plus named :class:`Check` outcomes
encoding the experiment's *shape criteria* (``repro list`` and
:mod:`repro.experiments.registry` index them) — so both the CLI and the
test-suite can assert reproduction success mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.cobra import cover_time_samples
from ..graphs.graph import Graph
from ..parallel.pool import parallel_map
from ..stats.estimators import Estimate, mean_ci, whp_quantile
from ..stats.rng import generator_from, spawn_seeds
from .tables import Table

__all__ = [
    "Check",
    "ExperimentResult",
    "measure_cover",
    "CoverMeasurement",
    "sweep_cover",
]


@dataclass(frozen=True)
class Check:
    """One pass/fail shape criterion with a human-readable explanation."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """True iff every shape criterion held."""
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        """Full text report: tables, then checks, then notes."""
        parts = [f"### {self.experiment_id}: {self.title}"]
        parts += [t.render() for t in self.tables]
        if self.checks:
            parts.append("Checks:")
            parts += [f"  {c}" for c in self.checks]
        if self.notes:
            parts.append("Notes:")
            parts += [f"  - {n}" for n in self.notes]
        return "\n\n".join(parts)


@dataclass(frozen=True)
class CoverMeasurement:
    """Mean and w.h.p. (95th-percentile) cover-time estimates for one graph."""

    graph_name: str
    n: int
    mean: Estimate
    whp: Estimate
    runs: int


def measure_cover(
    graph: Graph,
    *,
    runs: int,
    seed,
    start: int = 0,
    branching=2,
    lazy: bool = False,
    max_rounds: int | None = None,
    workers: int | None = None,
) -> CoverMeasurement:
    """Sample COBRA cover times and summarise (the E-series workhorse).

    ``workers`` (int >= 1) fans the shards of
    :func:`~repro.core.cobra.cover_time_samples` out over that many
    processes; ``None`` runs them in this process.  The samples are the
    same either way.
    """
    rng = generator_from(seed)
    samples = cover_time_samples(
        graph,
        start,
        runs,
        branching=branching,
        lazy=lazy,
        rng=rng,
        max_rounds=max_rounds,
        workers=workers,
    )
    return CoverMeasurement(
        graph_name=graph.name,
        n=graph.n,
        mean=mean_ci(samples),
        whp=whp_quantile(samples, rng=rng),
        runs=runs,
    )


def _measure_cover_task(task: dict) -> CoverMeasurement:
    """Module-level worker for :func:`sweep_cover` (must be picklable)."""
    return measure_cover(
        task["graph"],
        runs=task["runs"],
        seed=task["seed"],
        start=task["start"],
        branching=task["branching"],
        lazy=task["lazy"],
    )


def sweep_cover(
    graphs: list[Graph],
    *,
    runs: int,
    seed,
    n_workers: int = 1,
    start: int = 0,
    branching=2,
    lazy: bool = False,
) -> list[CoverMeasurement]:
    """Measure cover times for many graphs, optionally across processes.

    Seeds are spawned per graph from the master ``seed``, so the result
    list is identical at any ``n_workers`` (the determinism contract of
    :mod:`repro.parallel`).
    """
    seeds = spawn_seeds(seed, len(graphs))
    tasks = [
        {
            "graph": g,
            "runs": runs,
            "seed": s,
            "start": start,
            "branching": branching,
            "lazy": lazy,
        }
        for g, s in zip(graphs, seeds)
    ]
    return parallel_map(_measure_cover_task, tasks, n_workers=n_workers)
