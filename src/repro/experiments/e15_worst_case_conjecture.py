"""E15 / Open question — probing the O(n log n) worst-case conjecture.

The paper's conclusion: "while our general bound of O(n² log n) is a
significant improvement ... there are no known examples of the cover
time ω(n log n).  It has actually been conjectured the worst-case cover
time for any graph is O(n log n)."

This experiment probes that open conjecture on the nastiest families in
the library — the low-conductance clique constructions (barbell,
lollipop, ring of cliques), high-degree trees (star, caterpillar) and
the diameter-extremal path — by measuring the normalised ratio
``cover / (n ln n)`` along size sweeps.  Shape criterion: the ratio
stays bounded (no family shows it *growing* with n), i.e. nothing here
falsifies... or even strains the conjecture, matching the paper's
remark that no super-(n log n) example is known.
"""

from __future__ import annotations

import math

from ..graphs.generators import (
    barbell_graph,
    caterpillar_graph,
    lollipop_graph,
    path_graph,
    ring_of_cliques,
    star_graph,
)
from ..stats.rng import spawn_seeds
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult, sweep_cover
from .tables import Table

EXPERIMENT_ID = "E15"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title

#: The normalised ratio may drift by at most this factor across a
#: doubling sweep before we'd flag a family as conjecture-straining.
MAX_RATIO_GROWTH = 1.5


def _families(config: ExperimentConfig):
    if config.scale == "smoke":
        return {
            "barbell": [barbell_graph(k) for k in (6, 8, 12)],
            "path": [path_graph(n) for n in (32, 64, 128)],
        }
    if config.scale == "quick":
        return {
            "barbell": [barbell_graph(k) for k in (8, 12, 16, 24)],
            "lollipop": [lollipop_graph(k, k * k // 4) for k in (6, 8, 12)],
            "clique-ring": [ring_of_cliques(c, 6) for c in (4, 8, 16)],
            "star": [star_graph(n) for n in (64, 128, 256)],
            "caterpillar": [caterpillar_graph(s, 8) for s in (8, 16, 32)],
            "path": [path_graph(n) for n in (64, 128, 256)],
        }
    return {
        "barbell": [barbell_graph(k) for k in (8, 12, 16, 24, 32, 48)],
        "lollipop": [lollipop_graph(k, k * k // 4) for k in (6, 8, 12, 16, 24)],
        "clique-ring": [ring_of_cliques(c, 6) for c in (4, 8, 16, 32)],
        "star": [star_graph(n) for n in (64, 128, 256, 512, 1024)],
        "caterpillar": [caterpillar_graph(s, 8) for s in (8, 16, 32, 64)],
        "path": [path_graph(n) for n in (64, 128, 256, 512, 1024)],
    }


def run(config: ExperimentConfig) -> ExperimentResult:
    """Probe the worst-case conjecture across adversarial families."""
    runs = config.runs(12, 50, 150)
    families = _families(config)
    seeds = iter(spawn_seeds(config.seed, len(families)))

    table = Table(title="normalised cover time T / (n ln n)")
    checks: list[Check] = []
    global_max = 0.0
    for family, graphs in families.items():
        measurements = sweep_cover(
            graphs, runs=runs, seed=next(seeds), n_workers=config.n_workers
        )
        ratios = []
        for g, meas in zip(graphs, measurements):
            ratio = meas.whp.value / (g.n * math.log(g.n))
            ratios.append(ratio)
            global_max = max(global_max, ratio)
            table.add_row(
                family=family,
                graph=g.name,
                n=g.n,
                whp_cover=meas.whp.value,
                ratio_n_log_n=ratio,
            )
        growth = ratios[-1] / max(ratios[0], 1e-12)
        checks.append(
            Check(
                name=f"{family}: T/(n ln n) does not grow with n",
                passed=growth <= MAX_RATIO_GROWTH,
                detail=f"ratio smallest->largest: {ratios[0]:.3f} -> "
                f"{ratios[-1]:.3f} (growth {growth:.2f}x)",
            )
        )
    checks.append(
        Check(
            name="no family strains the O(n log n) conjecture",
            passed=global_max < 2.0,
            detail=f"max normalised ratio {global_max:.3f} (a genuine "
            "counterexample would show an unbounded ratio)",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        checks=checks,
        notes=[
            "the paper (Conclusions) notes no ω(n log n) example is known "
            "and cites the O(n log n) worst-case conjecture; this probe is "
            "evidence, not proof — a conjecture cannot be settled by "
            "simulation",
        ],
    )
