"""E12 / Table 5 — Lemma 5.4's doubling phase schedule.

Lemma 5.4 drives Theorem 1.5: starting from ``κ_0 = 1/(1−λ) +
(C′r/4) log n`` reached by round ``t_0 = 8rκ_0``, the infection size
doubles through ``κ_i = 2^i κ_0`` by rounds ``t_i = t_0 + 16 i r/(1−λ)``
until it reaches ``n/4``; Lemma 4.3 then finishes within
``O(log n/(1−λ))`` extra rounds.

We measure, per phase target, the 95th-percentile round at which BIPS
first reaches ``κ_i`` infected vertices, and check the schedule (at
``C′ = 1``) dominates every measured phase — plus the endpoint claim
that full infection lands within the schedule total + a calibrated
``O(log n/(1−λ))`` tail.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.bips import BipsProcess
from ..graphs.generators import random_regular_graph, torus_graph
from ..graphs.spectral import eigenvalue_gap
from ..stats.rng import spawn_generators
from ..theory.growth import lemma54_schedule
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult
from .tables import Table

EXPERIMENT_ID = "E12"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title

TAIL_CONSTANT = 64.0


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate the phase-schedule table."""
    runs = config.runs(10, 60, 200)
    graphs = config.pick(
        [random_regular_graph(64, 8, rng=40)],
        [
            random_regular_graph(256, 8, rng=40),
            random_regular_graph(144, 4, rng=41),
            torus_graph([15, 15]),
        ],
        [
            random_regular_graph(1024, 8, rng=40),
            random_regular_graph(400, 4, rng=41),
            torus_graph([31, 31]),
        ],
    )

    table = Table(title="q95 round reaching each doubling target vs schedule")
    checks: list[Check] = []
    for g in graphs:
        r = g.dmax
        gap = eigenvalue_gap(g)
        schedule = lemma54_schedule(g.n, r, gap)
        sizes_runs = []
        infec_times = []
        for gen in spawn_generators(config.seed + 13 * g.n, runs):
            res = BipsProcess(g, 0).run(gen)
            if not res.infected_all:
                raise RuntimeError(f"BIPS failed on {g.name}")
            sizes_runs.append(res.sizes)
            infec_times.append(res.infection_time)
        dominated = True
        for kappa, t_sched in zip(schedule.kappas, schedule.rounds):
            target = min(math.ceil(kappa), g.n)
            rounds_to_target = []
            for sizes in sizes_runs:
                hit = np.nonzero(sizes >= target)[0]
                rounds_to_target.append(int(hit[0]))
            q95 = float(np.quantile(rounds_to_target, 0.95))
            dominated &= q95 <= t_sched
            table.add_row(
                graph=g.name,
                gap=gap,
                kappa_target=target,
                q95_round=q95,
                schedule_round=t_sched,
            )
        checks.append(
            Check(
                name=f"{g.name}: schedule dominates every phase (C'=1)",
                passed=dominated,
                detail=f"{len(schedule.kappas)} phases, t0={schedule.t0:.0f}",
            )
        )
        endpoint = float(np.quantile(infec_times, 0.95))
        budget = schedule.total_rounds + TAIL_CONSTANT * max(
            1.0, math.log(g.n)
        ) / gap
        checks.append(
            Check(
                name=f"{g.name}: full infection within schedule + O(log n/gap)",
                passed=endpoint <= budget,
                detail=(
                    f"q95 infection time {endpoint:.0f} vs budget "
                    f"{budget:.0f} (tail constant {TAIL_CONSTANT:g})"
                ),
            )
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        checks=checks,
        notes=[
            "kappa targets capped at n; the schedule's t0 = 8 r kappa_0 is "
            "deliberately loose (the paper optimises constants nowhere)",
        ],
    )
