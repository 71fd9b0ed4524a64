"""E5 / Figure 2 — Lemma 3.1's degree-growth schedule for BIPS.

Lemma 3.1: for any connected graph, after ``t(k) = 4k + C′ dmax² log n``
rounds the infected set's degree satisfies ``d(A_t) >= d(v) + k`` w.h.p.

We run instrumented BIPS on the irregular families, record ``d(A_t)``
trajectories, and for a grid of ``k`` values measure the 95th-percentile
round at which the degree target is first met.  The shape criteria:
(a) a single modest calibration constant ``C′`` makes the schedule
dominate every measured point; (b) the final point (full infection,
``k = 2m − d(v)``) is dominated too, reproducing Theorem 1.4's
``O(m + dmax² log n)`` infection-time bound.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.bips import BipsProcess
from ..graphs.generators import barbell_graph, binary_tree, path_graph, star_graph
from ..stats.rng import spawn_generators
from ..theory.bounds import lemma31_round_schedule
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult
from .tables import Table

EXPERIMENT_ID = "E5"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title

#: Maximum acceptable calibrated C' for the shape check.
MAX_CPRIME = 8.0


def _first_round_reaching(degree_traj: np.ndarray, target: int) -> int:
    """First index t with d(A_t) >= target (trajectory is eventually 2m)."""
    hits = np.nonzero(degree_traj >= target)[0]
    return int(hits[0])


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate the degree-growth schedule comparison."""
    runs = config.runs(10, 40, 150)
    graphs = config.pick(
        [star_graph(24), path_graph(24)],
        [star_graph(64), path_graph(64), binary_tree(5), barbell_graph(10)],
        [star_graph(256), path_graph(256), binary_tree(7), barbell_graph(20)],
    )

    table = Table(title="q95 round to reach d(A_t) >= d(v) + k vs t(k)")
    checks: list[Check] = []
    for g in graphs:
        source = 0
        gens = spawn_generators(config.seed + g.n, runs)
        trajs = []
        for gen in gens:
            res = BipsProcess(g, source).run(gen, record_degrees=True)
            if not res.infected_all:
                raise RuntimeError(f"BIPS failed to complete on {g.name}")
            trajs.append(res.degree_sizes)
        total = g.total_degree()
        dv = g.degree(source)
        k_max = total - dv
        k_grid = sorted(
            {max(1, int(round(k_max * frac))) for frac in (0.1, 0.25, 0.5, 0.75, 1.0)}
        )
        log_n = max(1.0, math.log(g.n))
        needed_cprime = 0.0
        for k in k_grid:
            rounds_to_k = np.array(
                [_first_round_reaching(traj, dv + k) for traj in trajs]
            )
            q95 = float(np.quantile(rounds_to_k, 0.95))
            # Smallest C' for which t(k) = 4k + C' dmax^2 log n >= q95.
            needed = max(0.0, (q95 - 4.0 * k) / (g.dmax**2 * log_n))
            needed_cprime = max(needed_cprime, needed)
            table.add_row(
                graph=g.name,
                k=k,
                q95_round=q95,
                schedule_cprime1=lemma31_round_schedule(k, g.dmax, g.n),
                needed_cprime=needed,
            )
        checks.append(
            Check(
                name=f"{g.name}: schedule dominates with C' <= {MAX_CPRIME:g}",
                passed=needed_cprime <= MAX_CPRIME,
                detail=f"calibrated C' = {needed_cprime:.3f}",
            )
        )
    notes = [
        "needed_cprime is the smallest C' making t(k) dominate the measured "
        "95th percentile; Lemma 3.1 asserts a finite C' exists for each "
        "target probability",
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        checks=checks,
        notes=notes,
    )
