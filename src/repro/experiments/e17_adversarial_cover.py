"""E17 — worst-case dynamic cover against an adaptive adversary.

E16 swept *oblivious* dynamics: the topology evolves blind to the
process.  This experiment opens the other regime — the worst case —
by handing the topology stream to a frontier-observing adversary
(:mod:`repro.adversary`) and sweeping its per-round rewiring budget on
two graph families (a random 4-regular expander and an odd torus).
Every cell runs the per-run sampler
(:func:`~repro.dynamics.dynamic_cover_time_samples`): one independent
adversarial realisation per run, so the adversary fights each run's
own frontier — the clean worst-case-per-run statistic.

The adversary is :class:`~repro.adversary.GreedyCutAdversary` on top
of the same degree-preserving oblivious rewiring E16 uses, so the
budget axis interpolates from E16's oblivious baseline (budget 0) to
a topology that actively severs frontier→uninformed edges every
round.

Shape criteria:

* **Oblivious anchor (exact).**  Budget-0 cells reproduce the
  oblivious :class:`~repro.dynamics.RewiringSequence` samples
  bit-for-bit under the same ``(topo_seed, proc_seed)`` pairs — the
  anchoring contract of :class:`~repro.adversary.AdversarialSequence`
  (the adversary draws only after the oblivious phase, so budget 0
  never perturbs the oblivious stream).
* **Monotone blowup (both families).**  Mean cover time is
  non-decreasing in the adversary budget (within a small sampling
  slack), and the top budget clearly exceeds the oblivious mean —
  more severing budget can only hurt the process.

A second, informational table runs the whole adversary catalogue
(greedy-cut, isolating churn, adaptive RRI, moving source) at a fixed
budget on the expander.
"""

from __future__ import annotations

import numpy as np

from ..adversary import (
    AdaptiveRRIPolicy,
    AdversarialSequence,
    GreedyCutAdversary,
    IsolatingChurnAdversary,
    MovingSourceAdversary,
)
from ..dynamics import (
    RewiringSequence,
    dynamic_cover_time_samples,
    dynamic_infection_time_samples,
)
from ..graphs.generators import random_regular_graph, torus_graph
from ..graphs.graph import Graph
from ..parallel.pool import parallel_map
from ..stats.estimators import mean_ci, whp_quantile
from ..stats.rng import spawn_seeds
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult
from .tables import Table

EXPERIMENT_ID = "E17"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title

# Fixed topology seed for the expander base graph (E16's convention).
_BASE_SEED = 1701

#: Oblivious double-edge-swap rate (fraction of |E| attempted per
#: round) shared by every cell — the E16-style baseline the budget
#: axis starts from.
OBLIVIOUS_RATE = 0.1

#: Consecutive budget means may dip by at most this factor (sampling
#: slack on the monotonicity check).
MONOTONE_SLACK = 0.90

#: The top budget's mean must exceed the oblivious mean by this factor.
BLOWUP_FACTOR = 1.25

#: Fixed budget for the informational adversary-catalogue table.
CATALOGUE_BUDGET = 8


def _swaps_for(base: Graph) -> int:
    """Oblivious swap attempts per round at :data:`OBLIVIOUS_RATE`."""
    return max(1, round(OBLIVIOUS_RATE * base.m))


def _adversarial_factory(base: Graph, budget: int):
    """Factory ``topology_seed -> AdversarialSequence`` for one cell."""
    swaps = _swaps_for(base)
    return lambda topology_seed: AdversarialSequence(
        base,
        GreedyCutAdversary(int(budget)),
        topology_seed,
        swaps_per_round=swaps,
    )


def _oblivious_factory(base: Graph):
    """The matching budget-0 baseline: plain oblivious rewiring."""
    swaps = _swaps_for(base)
    return lambda topology_seed: RewiringSequence(base, swaps, seed=topology_seed)


def _measure_budget_task(task: dict) -> dict:
    """Module-level worker for :func:`parallel_map` (must be picklable)."""
    times = dynamic_cover_time_samples(
        _adversarial_factory(task["base"], task["budget"]),
        task["runs"],
        seed=task["seed"],
    )
    return {"family": task["family"], "budget": task["budget"], "times": times}


def _catalogue_factories(base: Graph):
    """The informational catalogue: one sequence factory per adversary."""
    swaps = _swaps_for(base)
    return {
        "greedy-cut": (
            "cobra",
            "all-vertices",
            lambda ts: AdversarialSequence(
                base,
                GreedyCutAdversary(CATALOGUE_BUDGET),
                ts,
                swaps_per_round=swaps,
            ),
        ),
        "isolating-churn": (
            "cobra",
            "all-active",
            lambda ts: AdversarialSequence(
                base,
                IsolatingChurnAdversary(2, protected=(0,)),
                ts,
                swaps_per_round=swaps,
            ),
        ),
        "adaptive-rri": (
            "cobra",
            "all-vertices",
            lambda ts: AdversarialSequence(
                base,
                AdaptiveRRIPolicy(swaps, growth_threshold=1.5),
                ts,
                swaps_per_round=0,
            ),
        ),
        "moving-source": (
            "bips",
            "all-vertices",
            lambda ts: AdversarialSequence(
                base,
                MovingSourceAdversary(0, CATALOGUE_BUDGET),
                ts,
                swaps_per_round=swaps,
            ),
        ),
    }


def _grid(config: ExperimentConfig) -> tuple[dict[str, Graph], tuple, int]:
    n_exp = config.pick(32, 64, 128)
    side = config.pick(5, 7, 9)  # odd: the torus stays non-bipartite
    budgets = config.pick(
        (0, 2, 8, 32), (0, 2, 8, 32), (0, 2, 4, 8, 16, 32)
    )
    runs = config.runs(10, 40, 120)
    bases = {
        "expander": random_regular_graph(n_exp, 4, rng=_BASE_SEED),
        "torus": torus_graph([side, side]),
    }
    return bases, budgets, runs


def run(config: ExperimentConfig) -> ExperimentResult:
    """Sweep the greedy-cut budget on the expander and torus families."""
    bases, budgets, runs = _grid(config)

    cells = [(family, budget) for family in bases for budget in budgets]
    tasks = []
    for (family, budget), cell_seed in zip(
        cells, spawn_seeds(config.seed, len(cells))
    ):
        # Integer seeds keep the worker/parent discipline stateless: the
        # parent re-derives the identical streams for the anchor check.
        # Budget-0 cells share their family's seed with the oblivious
        # reference below, so the anchor comparison is seed-for-seed.
        tasks.append(
            {
                "family": family,
                "base": bases[family],
                "budget": budget,
                "runs": runs,
                "seed": int(cell_seed.generate_state(1)[0]),
            }
        )
    results = parallel_map(_measure_budget_task, tasks, n_workers=config.n_workers)

    table = Table(title="worst-case cover time vs greedy-cut budget")
    means: dict[tuple[str, int], float] = {}
    stat_rng = np.random.default_rng(config.seed)
    for task, res in zip(tasks, results):
        means[(res["family"], res["budget"])] = float(res["times"].mean())
        table.add_row(
            family=res["family"],
            n=task["base"].n,
            oblivious_swaps=_swaps_for(task["base"]),
            budget=res["budget"],
            mean_cover=mean_ci(res["times"]).value,
            whp_cover=whp_quantile(res["times"], rng=stat_rng).value,
            blowup=round(
                means[(res["family"], res["budget"])]
                / means[(res["family"], budgets[0])],
                2,
            ),
        )

    checks: list[Check] = []
    for task, res in zip(tasks, results):
        if res["budget"] != 0:
            continue
        oblivious = dynamic_cover_time_samples(
            _oblivious_factory(task["base"]), runs, seed=task["seed"]
        )
        exact = bool(np.array_equal(res["times"], oblivious))
        checks.append(
            Check(
                name=f"{res['family']}: budget 0 == oblivious rewiring (exact)",
                passed=exact,
                detail=f"samples bit-identical: {exact} ({runs} runs)",
            )
        )

    for family in bases:
        curve = [means[(family, b)] for b in budgets]
        monotone = all(
            later >= MONOTONE_SLACK * earlier
            for earlier, later in zip(curve, curve[1:])
        )
        blowup = curve[-1] >= BLOWUP_FACTOR * curve[0]
        checks.append(
            Check(
                name=f"{family}: cover blowup monotone in budget "
                f"(slack {MONOTONE_SLACK:g}, top ≥ {BLOWUP_FACTOR:g}× oblivious)",
                passed=monotone and blowup,
                detail=(
                    f"means along budgets {budgets}: "
                    + ", ".join(f"{m:.1f}" for m in curve)
                ),
            )
        )

    catalogue = Table(title="adversary catalogue on the expander (informational)")
    base = bases["expander"]
    cat_seeds = spawn_seeds(config.seed + 17, 4)
    for (name, (process, completion, factory)), cat_seed in zip(
        _catalogue_factories(base).items(), cat_seeds
    ):
        sampler = (
            dynamic_cover_time_samples
            if process == "cobra"
            else dynamic_infection_time_samples
        )
        times = sampler(
            factory, runs, seed=int(cat_seed.generate_state(1)[0]),
            completion=completion,
        )
        catalogue.add_row(
            adversary=name,
            process=process,
            completion=completion,
            mean_time=mean_ci(times).value,
            whp_time=whp_quantile(times, rng=stat_rng).value,
        )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table, catalogue],
        checks=checks,
        notes=[
            "adversary = GreedyCutAdversary: per round it may rewire up "
            "to `budget` edges, pairing frontier→uninformed boundary "
            "edges into frontier–frontier + uninformed–uninformed swaps "
            "(degree- and connectivity-preserving)",
            "execution = per-run sampler: one independent adversarial "
            "realisation per run, the adversary observing that run's "
            "own frontier through the engine observation protocol",
            f"all cells share the oblivious double-edge-swap baseline "
            f"(rate {OBLIVIOUS_RATE:g} of |E| per round); budget 0 "
            "replays it bit-for-bit — the E16 anchoring contract",
        ],
    )
