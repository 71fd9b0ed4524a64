"""E9 / Table 4 — COBRA vs baseline propagation processes.

The paper motivates COBRA as "fast like an epidemic, cheap like a
random walk".  We compare, per graph: COBRA (b = 2), a single random
walk (b = 1), ``ceil(log2 n)`` independent walks, push rumour
spreading, and deterministic flooding; plus the universal lower bound
``max{log₂ n, Diam}``.  Shape criteria: COBRA beats the single walk by
a wide margin on the expander; flooding (= eccentricity) is the floor;
nothing beats the lower bound.

Every sampler here executes through the unified batched engine
(:mod:`repro.engine`): all runs of a baseline advance inside one
``(R, n)`` boolean program instead of the historical one-run-at-a-time
Python loops.
"""

from __future__ import annotations

import math

from ..baselines.flooding import flooding_broadcast_time
from ..baselines.multi_walk import multi_walk_cover_samples
from ..baselines.pull import pull_broadcast_samples, push_pull_broadcast_samples
from ..baselines.push import push_broadcast_samples
from ..baselines.random_walk import random_walk_cover_samples
from ..graphs.generators import cycle_graph, random_regular_graph, torus_graph
from ..graphs.properties import diameter
from ..stats.estimators import mean_ci
from ..stats.rng import spawn_generators
from ..theory.bounds import lower_bound_cover
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult, measure_cover
from .tables import Table

EXPERIMENT_ID = "E9"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title


def run(config: ExperimentConfig) -> ExperimentResult:
    """Regenerate the baseline comparison table."""
    cobra_runs = config.runs(10, 50, 200)
    walk_runs = config.runs(3, 8, 24)
    graphs = config.pick(
        [("expander", random_regular_graph(64, 3, rng=21))],
        [
            ("expander", random_regular_graph(512, 3, rng=21)),
            ("torus-2d", torus_graph([23, 23])),
            ("cycle", cycle_graph(257)),
        ],
        [
            ("expander", random_regular_graph(1024, 3, rng=21)),
            ("torus-2d", torus_graph([33, 33])),
            ("cycle", cycle_graph(513)),
        ],
    )

    table = Table(title="mean rounds to inform all vertices")
    checks: list[Check] = []
    # Every sampler draws from the sharded engine (per-shard spawned
    # seeds); COBRA's shards fan out over n_workers processes, so E9's
    # tables are identical at every worker count.
    for label, g in graphs:
        gens = spawn_generators(config.seed + g.n, 6)
        cobra = measure_cover(
            g, runs=cobra_runs, seed=config.seed + g.n, workers=config.n_workers
        )
        rw = mean_ci(random_walk_cover_samples(g, runs=walk_runs, rng=gens[0]))
        k = max(2, math.ceil(math.log2(g.n)))
        kw = mean_ci(multi_walk_cover_samples(g, k, runs=walk_runs, rng=gens[1]))
        push = mean_ci(push_broadcast_samples(g, runs=cobra_runs, rng=gens[2]))
        pull = mean_ci(pull_broadcast_samples(g, runs=cobra_runs, rng=gens[3]))
        pushpull = mean_ci(
            push_pull_broadcast_samples(g, runs=cobra_runs, rng=gens[4])
        )
        flood = flooding_broadcast_time(g, 0)
        lower = lower_bound_cover(g.n, diameter(g))
        table.add_row(
            graph=g.name,
            n=g.n,
            cobra_b2=cobra.mean.value,
            single_walk=rw.value,
            k_walks=kw.value,
            k=k,
            push=push.value,
            pull=pull.value,
            push_pull=pushpull.value,
            flooding=flood,
            lower_bound=lower,
        )
        if label == "expander":
            speedup = rw.value / cobra.mean.value
            checks.append(
                Check(
                    name="COBRA >> single walk on the expander",
                    passed=speedup >= 10.0,
                    detail=f"speedup {speedup:.1f}x (expect Omega(n) vs O(log n))",
                )
            )
            checks.append(
                Check(
                    name="COBRA within polylog factor of flooding on the expander",
                    passed=cobra.mean.value
                    <= flood * max(4.0, math.log(g.n) ** 2),
                    detail=f"COBRA {cobra.mean.value:.1f} vs flooding {flood}",
                )
            )
        checks.append(
            Check(
                name=f"{g.name}: COBRA respects the universal lower bound",
                passed=(
                    cobra.mean.value >= lower * 0.99
                    and rw.value >= lower * 0.99
                ),
                detail=f"lower bound max(log2 n, Diam) = {lower:.1f}",
            )
        )
        checks.append(
            Check(
                name=f"{g.name}: flooding is the fastest process",
                passed=flood
                <= min(
                    cobra.mean.value,
                    rw.value,
                    kw.value,
                    push.value,
                    pull.value,
                    pushpull.value,
                )
                + 1e-9,
                detail=f"flooding {flood} rounds (= eccentricity)",
            )
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        checks=checks,
        notes=[
            "k-walks uses k = ceil(log2 n) independent walkers; push/pull use "
            "one contact per round (classic protocols). Flooding costs d(u) "
            "transmissions per vertex per round; COBRA caps at b = 2.",
        ],
    )
