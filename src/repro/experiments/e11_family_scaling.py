"""E11 / Figure 7 — cover-time scaling panel across graph families.

Reproduces the literature claims the paper quotes in its introduction:

* complete graph ``K_n``: cover in ``O(log n)`` rounds [Dutta et al.];
* random 3-regular graphs (expanders): polylog, in fact ``O(log n)``;
* 2-D torus: ``Θ~(n^{1/2})``; 3-D torus: ``Θ~(n^{1/3})``.

Shape criteria are fitted scaling exponents with generous tolerances
(paper-level claims are asymptotic; we check the measured growth law
lands on the predicted power).
"""

from __future__ import annotations

import numpy as np

from ..graphs.generators import complete_graph, random_regular_graph, torus_graph
from ..stats.regression import fit_polylog, fit_power_law
from ..stats.rng import spawn_seeds
from ..theory.predictions import prediction_for
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult, sweep_cover
from .tables import Table

EXPERIMENT_ID = "E11"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title

EXPONENT_TOLERANCE = 0.18


def _sweeps(config: ExperimentConfig):
    if config.scale == "smoke":
        # Sizes must span enough decades for a meaningful log-log fit:
        # c*ln(n) growth over n in [16, 64] shows an apparent power of
        # ~0.35, right at the 1/3 criterion boundary.
        return {
            "complete": [complete_graph(n) for n in (32, 64, 128, 256)],
            "torus-2d": [torus_graph([s, s]) for s in (5, 7, 9)],
        }
    if config.scale == "quick":
        return {
            "complete": [complete_graph(n) for n in (32, 64, 128, 256, 512)],
            "random-regular": [
                random_regular_graph(n, 3, rng=30 + i)
                for i, n in enumerate((64, 128, 256, 512))
            ],
            "torus-2d": [torus_graph([s, s]) for s in (7, 11, 15, 23)],
            "torus-3d": [torus_graph([s, s, s]) for s in (3, 5, 7)],
        }
    return {
        "complete": [complete_graph(n) for n in (32, 64, 128, 256, 512, 1024)],
        "random-regular": [
            random_regular_graph(n, 3, rng=30 + i)
            for i, n in enumerate((64, 128, 256, 512, 1024, 2048))
        ],
        "torus-2d": [torus_graph([s, s]) for s in (7, 11, 15, 23, 33, 47)],
        "torus-3d": [torus_graph([s, s, s]) for s in (3, 5, 7, 9, 11)],
    }


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate the scaling panel."""
    runs = config.runs(12, 60, 200)
    sweeps = _sweeps(config)
    family_seeds = iter(spawn_seeds(config.seed, len(sweeps)))

    table = Table(title="mean cover time per family and size")
    checks: list[Check] = []
    for family, graphs in sweeps.items():
        # The size sweep fans out across worker processes when the
        # config asks for them (results are worker-count invariant).
        measurements = sweep_cover(
            graphs, runs=runs, seed=next(family_seeds), n_workers=config.n_workers
        )
        ns, means = [], []
        for g, meas in zip(graphs, measurements):
            ns.append(g.n)
            means.append(meas.mean.value)
            table.add_row(
                family=family, graph=g.name, n=g.n, mean_cover=meas.mean.value
            )
        ns_arr = np.asarray(ns, dtype=np.float64)
        means_arr = np.asarray(means, dtype=np.float64)
        pred = prediction_for(family)
        power_fit = fit_power_law(ns_arr, means_arr)
        if pred.polylog_only:
            polylog_fit = fit_polylog(ns_arr, means_arr)
            # At finite n, c*ln(n) growth fits an apparent n-exponent of
            # ~ 1/ln(n_mid) ~ 0.2-0.3; the criterion is that the
            # exponent sits below every polynomial prediction (the
            # smallest is the 3-D torus at 1/3) and the polylog power
            # is moderate.
            checks.append(
                Check(
                    name=f"{family}: polylog growth (n-exponent below 1/3)",
                    passed=power_fit.exponent < 1.0 / 3.0
                    and polylog_fit.exponent < 2.5,
                    detail=(
                        f"T ~ n^{power_fit.exponent:.3f}; polylog fit "
                        f"T ~ (ln n)^{polylog_fit.exponent:.2f} "
                        f"[{pred.source}]"
                    ),
                )
            )
        else:
            ok = abs(power_fit.exponent - pred.power_of_n) <= EXPONENT_TOLERANCE
            checks.append(
                Check(
                    name=f"{family}: power-law exponent ~ {pred.power_of_n:.2f}",
                    passed=ok,
                    detail=(
                        f"fitted n^{power_fit.exponent:.3f} "
                        f"(R^2={power_fit.r_squared:.3f}) [{pred.source}]"
                    ),
                )
            )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        checks=checks,
        notes=[
            f"exponent tolerance ±{EXPONENT_TOLERANCE}; tori carry polylog "
            "corrections that bias fitted exponents slightly below the "
            "clean 1/D at small sizes",
        ],
    )
