"""E6 / Figure 3 — Lemmas 4.1/4.2: one-round expected infection growth.

Lemma 4.1: on a connected r-regular graph,
``E[|A_{t+1}| | A_t] >= |A_t| (1 + (1−λ²)(1 − |A_t|/n))`` for ``b = 2``;
Lemma 4.2 scales the middle factor by ``ρ`` for ``b = 1 + ρ``.

Because the bound holds *conditionally on any set* of a given size, it
also lower-bounds the average over sets the process visits.  We bucket
observed transitions ``(|A_t|, |A_{t+1}|)`` by current size and check
the bucket means dominate the lemma's curve (with sampling slack).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..core.bips import BipsProcess
from ..core.branching import BernoulliBranching
from ..graphs.generators import random_regular_graph, torus_graph
from ..graphs.spectral import second_eigenvalue
from ..stats.rng import spawn_generators
from ..theory.growth import lemma41_growth_bound, lemma42_growth_bound
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult
from .tables import Table

EXPERIMENT_ID = "E6"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title

MIN_BUCKET_SAMPLES = 25


def _collect_transitions(graph, branching, runs, seed):
    """All observed (|A_t|, |A_{t+1}|) pairs across BIPS runs."""
    pairs = []
    for gen in spawn_generators(seed, runs):
        res = BipsProcess(graph, 0, branching).run(gen)
        sizes = res.sizes
        pairs.extend(zip(sizes[:-1].tolist(), sizes[1:].tolist()))
    return pairs


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate the growth-lemma verification."""
    runs = config.runs(40, 120, 400)
    min_bucket = config.pick(8, MIN_BUCKET_SAMPLES, MIN_BUCKET_SAMPLES)
    cases = config.pick(
        [("rreg-3", random_regular_graph(32, 3, rng=7), 2)],
        [
            ("rreg-3", random_regular_graph(128, 3, rng=7), 2),
            ("rreg-8", random_regular_graph(128, 8, rng=8), 2),
            ("torus-2d", torus_graph([11, 11]), 2),
            ("rreg-3 (rho=0.5)", random_regular_graph(128, 3, rng=7), BernoulliBranching(0.5)),
        ],
        [
            ("rreg-3", random_regular_graph(256, 3, rng=7), 2),
            ("rreg-8", random_regular_graph(256, 8, rng=8), 2),
            ("torus-2d", torus_graph([15, 15]), 2),
            ("torus-3d", torus_graph([7, 7, 7]), 2),
            ("rreg-3 (rho=0.5)", random_regular_graph(256, 3, rng=7), BernoulliBranching(0.5)),
            ("rreg-3 (rho=0.25)", random_regular_graph(256, 3, rng=7), BernoulliBranching(0.25)),
        ],
    )

    table = Table(title="bucketed mean next size vs lemma bound")
    checks: list[Check] = []
    for label, g, branching in cases:
        if not g.is_regular():
            raise RuntimeError("growth lemmas require regular graphs")
        lam = second_eigenvalue(g)
        pairs = _collect_transitions(g, branching, runs, config.seed + g.n)
        buckets: dict[int, list[int]] = defaultdict(list)
        for size, nxt in pairs:
            buckets[int(size)].append(int(nxt))
        violations = 0
        tested = 0
        worst_margin = np.inf
        for size, nexts in sorted(buckets.items()):
            if len(nexts) < min_bucket or size >= g.n:
                continue
            arr = np.asarray(nexts, dtype=np.float64)
            mean = float(arr.mean())
            sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
            if isinstance(branching, BernoulliBranching):
                bound = lemma42_growth_bound(size, g.n, lam, branching.rho)
            else:
                bound = lemma41_growth_bound(size, g.n, lam)
            margin = mean + 4.0 * sem - bound
            worst_margin = min(worst_margin, margin)
            tested += 1
            if margin < 0:
                violations += 1
            table.add_row(
                case=label,
                size=size,
                samples=arr.size,
                mean_next=mean,
                lemma_bound=bound,
                margin=margin,
            )
        checks.append(
            Check(
                name=f"{label}: bucket means dominate the lemma bound",
                passed=violations == 0 and tested > 0,
                detail=(
                    f"{tested} buckets tested, {violations} violations, "
                    f"worst margin {worst_margin:.3f}"
                ),
            )
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        checks=checks,
        notes=[
            "margin = bucket mean + 4*SEM - bound; the lemma guarantees "
            "margin >= 0 in expectation for every conditioning set",
        ],
    )
