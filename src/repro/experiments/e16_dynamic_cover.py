"""E16 — COBRA cover / BIPS infection on time-evolving graphs.

Beyond the paper (its processes are defined on static graphs): the
canonical next workload is the same processes on evolving topologies.
This experiment sweeps the rewiring rate of a degree-preserving
k-swap dynamics (:class:`~repro.dynamics.RewiringSequence`) on two
extremes — a random 4-regular expander and an odd cycle — and measures
dynamic cover and infection times per rate.

Each sweep cell draws one topology realisation from its own seed and
hands that sequence to :func:`~repro.dynamics.dynamic_cover_time_samples`
and :func:`~repro.dynamics.dynamic_infection_time_samples`, so every
run of the cell replays it (quenched statistics) on the samplers'
sharded stream.

Shape criteria:

* **Static anchor (exact).**  At rate 0 the dynamic samplers reproduce
  the static samplers (:func:`~repro.core.cover_time_samples`,
  :func:`~repro.core.infection_time_samples`) sample-for-sample under
  the same seed — the frozen-sequence regression contract of
  :mod:`repro.dynamics`.
* **Expander robustness.**  Rewiring an expander keeps it an expander
  (degree-preserving swaps stay in the random-regular family), so the
  mean cover time stays within a small constant of the static mean at
  every rate.
* **Cycle scatter speed-up.**  Rewiring a cycle mid-run scatters the
  visited set around the (relabelled) ring, multiplying the number of
  expanding frontier segments: the mean cover time at the highest rate
  drops clearly below the static mean.
"""

from __future__ import annotations

import numpy as np

from ..core.bips import infection_time_samples
from ..core.cobra import cover_time_samples
from ..dynamics import (
    FrozenSequence,
    RewiringSequence,
    dynamic_cover_time_samples,
    dynamic_infection_time_samples,
)
from ..graphs.generators import cycle_graph, random_regular_graph
from ..graphs.graph import Graph
from ..parallel.pool import parallel_map
from ..stats.estimators import mean_ci, whp_quantile
from ..stats.rng import spawn_seeds
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult
from .tables import Table

EXPERIMENT_ID = "E16"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title

# Fixed topology seed for the expander base graph, so the parent and the
# worker processes (and any two runs at the same scale) agree on it.
_BASE_SEED = 1701

EXPANDER_ROBUSTNESS_FACTOR = 3.0
CYCLE_SPEEDUP_FACTOR = 0.9


def _swaps_for(base: Graph, rate: float) -> int:
    """Swap attempts per round for a rewiring rate (fraction of edges)."""
    return max(1, round(rate * base.m)) if rate > 0 else 0


def _sequence(base: Graph, rate: float, topology_seed: int):
    """The one topology realisation of a sweep cell."""
    if rate == 0.0:
        return FrozenSequence(base)
    return RewiringSequence(base, _swaps_for(base, rate), seed=topology_seed)


def _measure_dynamic_task(task: dict) -> dict:
    """Module-level worker for :func:`parallel_map` (must be picklable).

    The cell's ``runs`` runs all replay its one realisation, drawn on
    the samplers' sharded stream in this process.
    """
    base, rate, runs = task["base"], task["rate"], task["runs"]
    sequence = _sequence(base, rate, task["topology_seed"])
    cover = dynamic_cover_time_samples(sequence, runs, seed=task["cover_seed"])
    infec = dynamic_infection_time_samples(sequence, runs, seed=task["infec_seed"])
    return {
        "family": task["family"],
        "rate": rate,
        "cover": cover,
        "infec": infec,
    }


def _grid(config: ExperimentConfig) -> tuple[dict[str, Graph], tuple, int]:
    n_exp, n_cyc = config.pick(32, 64, 128), config.pick(21, 65, 129)
    rates = config.pick(
        (0.0, 0.3), (0.0, 0.05, 0.2, 0.5), (0.0, 0.02, 0.05, 0.1, 0.2, 0.5)
    )
    runs = config.runs(10, 40, 120)
    bases = {
        "expander": random_regular_graph(n_exp, 4, rng=_BASE_SEED),
        "cycle": cycle_graph(n_cyc),
    }
    return bases, rates, runs


def run(config: ExperimentConfig) -> ExperimentResult:
    """Sweep rewiring rates on the expander and cycle families."""
    bases, rates, runs = _grid(config)

    tasks = []
    cells = [(family, rate) for family in bases for rate in rates]
    for (family, rate), cell_seed in zip(cells, spawn_seeds(config.seed, len(cells))):
        # Integer seeds keep the worker/parent seed discipline stateless:
        # the parent re-derives the same run streams for the exact checks
        # regardless of worker count.
        topology_seed, cover_seed, infec_seed = (
            int(s) for s in cell_seed.generate_state(3)
        )
        tasks.append(
            {
                "family": family,
                "base": bases[family],
                "rate": rate,
                "runs": runs,
                "topology_seed": topology_seed,
                "cover_seed": cover_seed,
                "infec_seed": infec_seed,
            }
        )
    results = parallel_map(_measure_dynamic_task, tasks, n_workers=config.n_workers)

    table = Table(title="dynamic cover/infection time vs rewiring rate")
    mean_cover: dict[tuple[str, float], float] = {}
    stat_rng = np.random.default_rng(config.seed)
    for task, res in zip(tasks, results):
        mean_cover[(res["family"], res["rate"])] = float(res["cover"].mean())
        table.add_row(
            family=res["family"],
            n=task["base"].n,
            rate=res["rate"],
            swaps_per_round=_swaps_for(task["base"], res["rate"]),
            mean_cover=mean_ci(res["cover"]).value,
            whp_cover=whp_quantile(res["cover"], rng=stat_rng).value,
            mean_infection=mean_ci(res["infec"]).value,
        )

    checks: list[Check] = []
    for task, res in zip(tasks, results):
        if res["rate"] != 0.0:
            continue
        base = task["base"]
        static_cover = cover_time_samples(base, 0, runs, rng=task["cover_seed"])
        static_infec = infection_time_samples(base, 0, runs, rng=task["infec_seed"])
        cover_ok = bool(np.array_equal(res["cover"], static_cover))
        infec_ok = bool(np.array_equal(res["infec"], static_infec))
        checks.append(
            Check(
                name=f"{res['family']}: frozen dynamics == static samplers (exact)",
                passed=cover_ok and infec_ok,
                detail=(
                    f"cover samples equal: {cover_ok}; "
                    f"infection samples equal: {infec_ok} ({runs} runs)"
                ),
            )
        )

    top_rate = max(rates)
    exp_static = mean_cover[("expander", 0.0)]
    exp_worst = max(mean_cover[("expander", r)] for r in rates)
    checks.append(
        Check(
            name="expander: cover robust to rewiring "
            f"(≤ {EXPANDER_ROBUSTNESS_FACTOR:g}× static at every rate)",
            passed=exp_worst <= EXPANDER_ROBUSTNESS_FACTOR * exp_static,
            detail=f"static mean {exp_static:.1f}, worst dynamic mean {exp_worst:.1f}",
        )
    )
    cyc_static = mean_cover[("cycle", 0.0)]
    cyc_fast = mean_cover[("cycle", top_rate)]
    checks.append(
        Check(
            name="cycle: rewiring scatters the frontier "
            f"(mean at rate {top_rate:g} < {CYCLE_SPEEDUP_FACTOR:g}× static)",
            passed=cyc_fast < CYCLE_SPEEDUP_FACTOR * cyc_static,
            detail=f"static mean {cyc_static:.1f}, rate-{top_rate:g} mean {cyc_fast:.1f}",
        )
    )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        checks=checks,
        notes=[
            "rewiring = degree-preserving double-edge swaps per round "
            "(connectivity-preserving); rate is the attempted-swap "
            "fraction of |E| per round",
            "quenched statistics: each cell's runs replay one topology "
            "realisation, drawn on the samplers' sharded stream",
            "rate 0 uses FrozenSequence: the exact-match check against the "
            "static samplers is the static-regression contract of "
            "repro.dynamics",
        ],
    )
