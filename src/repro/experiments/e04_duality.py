"""E4 / Figure 1 — the duality theorem (Theorem 1.3), exactly and by MC.

Exact mode: on tiny named and random graphs, both sides of

    ``P̂(Hit(v) > T | C_0 = C) = P(C ∩ A_T = ∅ | A_0 = {v})``

are computed from the exact subset chains; the identity must hold to
numerical precision for every horizon, source, start set and branching
policy tested.  Monte-Carlo mode repeats the comparison on a larger
expander where only sampling is feasible; the criterion is CI overlap.
"""

from __future__ import annotations

import numpy as np

from ..core.branching import BernoulliBranching
from ..core.duality import verify_duality_exact, verify_duality_monte_carlo
from ..graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from ..stats.rng import spawn_seeds
from .config import ExperimentConfig
from .registry import EXPERIMENTS
from .runner import Check, ExperimentResult
from .tables import Table

EXPERIMENT_ID = "E4"
TITLE = EXPERIMENTS[EXPERIMENT_ID].title


def _exact_cases(config: ExperimentConfig):
    cases = [
        ("path-5", path_graph(5), 4, [0], 2),
        ("cycle-5", cycle_graph(5), 0, [2, 3], 2),
        ("star-6", star_graph(6), 3, [0], 2),
        ("complete-5", complete_graph(5), 1, [0, 4], 2),
        ("path-6 (b=1: random walk)", path_graph(6), 5, [0], 1),
        ("cycle-7 (b=1+rho)", cycle_graph(7), 3, [0], BernoulliBranching(0.5)),
    ]
    if config.scale != "smoke":
        cases += [
            ("gnp-7-a", erdos_renyi_graph(7, 0.5, rng=5), 2, [0, 6], 2),
            ("gnp-7-b", erdos_renyi_graph(7, 0.6, rng=9), 6, [1], 2),
            ("path-6 (b=3)", path_graph(6), 0, [5], 3),
        ]
    return cases


def run(config: ExperimentConfig) -> ExperimentResult:
    """Verify Theorem 1.3 exactly on tiny graphs and by MC on a larger one."""
    t_max = config.pick(10, 20, 24)
    table = Table(title="Exact duality: max |LHS - RHS| per case")
    checks: list[Check] = []
    for label, g, source, start, branching in _exact_cases(config):
        report = verify_duality_exact(
            g, source, start, branching=branching, t_max=t_max
        )
        table.add_row(
            case=label,
            n=g.n,
            source=source,
            start_set=str(start),
            horizons=t_max,
            max_abs_diff=report.max_abs_diff,
        )
        checks.append(
            Check(
                name=f"exact identity: {label}",
                passed=report.max_abs_diff < 1e-9,
                detail=f"max |LHS-RHS| = {report.max_abs_diff:.2e}",
            )
        )

    # Monte-Carlo mode on a graph far beyond exact reach.
    mc_runs = config.runs(400, 2000, 8000)
    seed = spawn_seeds(config.seed, 1)[0]
    g = random_regular_graph(
        config.pick(16, 32, 64), 3, rng=np.random.default_rng(42)
    )
    mc = verify_duality_monte_carlo(
        g, source=0, start_set=[g.n - 1], runs=mc_runs, rng=np.random.default_rng(seed)
    )
    mc_table = Table(title=f"Monte-Carlo duality on {g.name} ({mc_runs} runs/side)")
    for i, horizon in enumerate(mc.horizons):
        mc_table.add_row(
            T=int(horizon),
            cobra_side=float(mc.cobra_side[i]),
            bips_side=float(mc.bips_side[i]),
            diff=float(abs(mc.cobra_side[i] - mc.bips_side[i])),
            joint_stderr=float(
                np.sqrt(mc.cobra_stderr[i] ** 2 + mc.bips_stderr[i] ** 2)
            ),
        )
    checks.append(
        Check(
            name=f"Monte-Carlo consistency on {g.name}",
            passed=mc.consistent(z=4.0),
            detail=f"max diff {mc.max_abs_diff:.4f} within 4 joint stderr at all T",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table, mc_table],
        checks=checks,
        notes=[
            "the exact check covers b=2, b=1 (random-walk degenerate case), "
            "b=3 and Bernoulli b=1+rho — the duality holds for every "
            "branching parameter, as Theorem 1.3 states",
        ],
    )
