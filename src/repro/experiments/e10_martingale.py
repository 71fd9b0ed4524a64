"""E10 / Figure 6 — Lemma 2.1 / Corollary 2.2 concentration bounds.

We verify the supermartingale tail inequalities empirically on two
sources of increments:

1. synthetic bounded-increment supermartingales (Rademacher and
   clipped-uniform, zero and negative drift) — Lemma 2.1's exact
   hypothesis class;
2. the *real* ``Z_l = (1/2 − Y_l)/dmax`` streams from serialised BIPS
   runs (padded past completion with the paper's technical ``Y_l = 1``
   convention), the streams Lemma 3.1 actually feeds through
   Corollary 2.2.

Shape criterion: the empirical tail probability never exceeds the
analytic bound at any (δ, α, q0) grid point.
"""

from __future__ import annotations

import numpy as np

from ..core.serialization import SerializedBips, collect_increments
from ..graphs.generators import path_graph, random_regular_graph, star_graph
from ..stats.rng import spawn_generators
from ..theory.martingale import (
    azuma_tail_bound,
    check_azuma_on_paths,
    synthetic_supermartingale_paths,
)
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult
from .tables import Table

EXPERIMENT_ID = "E10"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title


def _bips_z_paths(graph, runs: int, steps: int, seed: int) -> np.ndarray:
    """Fixed-length Z_l paths from serialised BIPS, padded per the paper.

    Past completion the paper sets ``Y_l = 1``, i.e.
    ``Z_l = (1/2 − 1)/dmax = −1/(2 dmax)``.
    """
    pad = -0.5 / graph.dmax
    paths = np.full((runs, steps), pad, dtype=np.float64)
    for i, gen in enumerate(spawn_generators(seed, runs)):
        proc = SerializedBips(graph, 0)
        records = proc.run(gen)
        _, zs, _ = collect_increments(records)
        take = min(zs.shape[0], steps)
        paths[i, :take] = zs[:take]
    return paths


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate the concentration verification grid."""
    synth_runs = config.runs(500, 3000, 12000)
    steps = config.pick(128, 384, 1024)
    rng = np.random.default_rng(config.seed)

    sources = [
        (
            "rademacher drift 0",
            synthetic_supermartingale_paths(synth_runs, steps, rng),
        ),
        (
            "rademacher drift -0.1",
            synthetic_supermartingale_paths(synth_runs, steps, rng, drift=-0.1),
        ),
        (
            "clipped uniform drift -0.05",
            synthetic_supermartingale_paths(
                synth_runs, steps, rng, drift=-0.05, kind="uniform"
            ),
        ),
    ]
    bips_runs = config.runs(60, 250, 800)
    for g in config.pick(
        [star_graph(16)],
        [star_graph(32), path_graph(32), random_regular_graph(32, 3, rng=6)],
        [star_graph(64), path_graph(64), random_regular_graph(64, 3, rng=6)],
    ):
        sources.append(
            (
                f"BIPS Z_l on {g.name}",
                _bips_z_paths(g, bips_runs, steps, config.seed + g.n),
            )
        )

    table = Table(title="empirical sup-tail vs Corollary 2.2 bound")
    checks: list[Check] = []
    q0s = tuple(q for q in (8, 32, min(128, steps)) if q <= steps)
    # Large deltas make q0 e^{-delta^2/4} non-trivial (< 1) even at q0=128.
    deltas = (2.0, 3.0, 4.0, 5.0, 6.0)
    for label, paths in sources:
        results = check_azuma_on_paths(paths, deltas=deltas, q0s=q0s)
        informative = [c for c in results if c.bound < 1.0]
        all_hold = all(c.holds for c in results)
        for c in results:
            table.add_row(
                source=label,
                delta=c.delta,
                alpha=c.alpha,
                q0=c.q0,
                empirical=c.empirical,
                bound=min(c.bound, 1.0),
                holds=c.holds,
            )
        checks.append(
            Check(
                name=f"{label}: empirical tail <= bound on the whole grid",
                passed=all_hold,
                detail=(
                    f"{len(results)} grid points "
                    f"({len(informative)} with non-trivial bound)"
                ),
            )
        )

    # Also spot-check the plain Lemma 2.1 (single-q) tail at q = steps.
    lemma_table = Table(title="Lemma 2.1 single-horizon tail (rademacher drift 0)")
    paths0 = sources[0][1]
    final = paths0.sum(axis=1)
    for delta in (1.0, 2.0, 3.0):
        emp = float(np.mean(final > delta * np.sqrt(steps)))
        bnd = azuma_tail_bound(delta)
        lemma_table.add_row(delta=delta, empirical=emp, bound=bnd, holds=emp <= bnd)
        checks.append(
            Check(
                name=f"Lemma 2.1 at delta={delta:g}",
                passed=emp <= bnd,
                detail=f"empirical {emp:.4f} vs e^(-d^2/2) = {bnd:.4f}",
            )
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table, lemma_table],
        checks=checks,
        notes=[
            "BIPS Z_l streams use the paper's padding Y_l = 1 past "
            "completion, keeping the supermartingale property",
        ],
    )
