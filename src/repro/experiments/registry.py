"""Registry of the E1..E17 experiments: id, title, paper anchor and module.

Each title is written here once; an experiment module reads its own
from :data:`EXPERIMENTS`.  Listing the registry imports no experiment
module: :meth:`ExperimentSpec.run` imports one when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._lazy import load
from .config import ExperimentConfig

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment; ``module`` names it inside this package."""

    experiment_id: str
    title: str
    paper_anchor: str
    module: str

    def run(self, config: ExperimentConfig):
        """Import the experiment's module and return its ``ExperimentResult``."""
        return load(f"{__package__}.{self.module}").run(config)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "E1",
            "Hypercube cover time vs the three bound predictions (Table 1)",
            "Section 1 hypercube ladder: O(log^8/log^4/log^3 n)",
            "e01_hypercube_ladder",
        ),
        ExperimentSpec(
            "E2",
            "General-graph bound O(m + dmax^2 log n) vs measured (Table 2)",
            "Theorem 1.1: O(m + dmax^2 log n)",
            "e02_general_bound",
        ),
        ExperimentSpec(
            "E3",
            "Regular bound O((r/(1-lambda) + r^2) log n) vs measured (Table 3)",
            "Theorem 1.2: O((r/(1-lambda) + r^2) log n)",
            "e03_regular_bound",
        ),
        ExperimentSpec(
            "E4",
            "COBRA-BIPS duality: exact identity + Monte-Carlo consistency (Fig 1)",
            "Theorem 1.3: COBRA-BIPS duality",
            "e04_duality",
        ),
        ExperimentSpec(
            "E5",
            "Lemma 3.1 / Theorem 1.4: BIPS degree growth schedule (Fig 2)",
            "Lemma 3.1 / Theorem 1.4: BIPS degree growth",
            "e05_lemma31_schedule",
        ),
        ExperimentSpec(
            "E6",
            "Lemma 4.1/4.2: expected one-round growth lower bound (Fig 3)",
            "Lemmas 4.1/4.2: one-round expected growth",
            "e06_growth_lemma",
        ),
        ExperimentSpec(
            "E7",
            "Corollary 5.2: |C_t| >= |A_{t-1}|(1-lambda)/2 (Fig 4)",
            "Corollary 5.2: candidate-set size",
            "e07_candidate_bound",
        ),
        ExperimentSpec(
            "E8",
            "Branching b = 1 + rho: cover time vs the 1/rho^2 envelope (Fig 5)",
            "Section 6: branching b = 1 + rho",
            "e08_branching_sweep",
        ),
        ExperimentSpec(
            "E9",
            "COBRA vs baselines: RW, k-RW, push/pull, flooding (Table 4)",
            "Section 1 motivation: COBRA vs baselines",
            "e09_baselines",
        ),
        ExperimentSpec(
            "E10",
            "Azuma/Corollary 2.2 concentration on synthetic + BIPS streams (Fig 6)",
            "Lemma 2.1 / Corollary 2.2: concentration",
            "e10_martingale",
        ),
        ExperimentSpec(
            "E11",
            "Family scaling panel: K_n, expanders, tori (Fig 7)",
            "Section 1 cited claims: family scaling",
            "e11_family_scaling",
        ),
        ExperimentSpec(
            "E12",
            "Lemma 5.4 doubling schedule + Theorem 1.5 endpoint (Table 5)",
            "Lemma 5.4 / Theorem 1.5: doubling phases",
            "e12_phase_schedule",
        ),
        ExperimentSpec(
            "E13",
            "Ablation: lazy vs non-lazy COBRA on non-bipartite graphs",
            "Ablation: the cost of the lazy (bipartite) fix",
            "e13_lazy_ablation",
        ),
        ExperimentSpec(
            "E14",
            "Ablation: branching factor b in {1, 2, 3, 4} — speed vs cost",
            "Ablation: branching factor b beyond 2",
            "e14_branching_returns",
        ),
        ExperimentSpec(
            "E15",
            "Open conjecture: is worst-case COBRA cover time O(n log n)?",
            "Conclusions: the O(n log n) worst-case conjecture",
            "e15_worst_case_conjecture",
        ),
        ExperimentSpec(
            "E16",
            "Dynamic graphs: cover/infection vs rewiring rate",
            "Extension: COBRA/BIPS on time-evolving graphs",
            "e16_dynamic_cover",
        ),
        ExperimentSpec(
            "E17",
            "Adversarial dynamics: worst-case cover vs adversary budget",
            "Extension: worst-case cover vs an adaptive adversary",
            "e17_adversarial_cover",
        ),
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(experiment_id: str, config: ExperimentConfig | None = None):
    """Run one experiment under the given (or default) config."""
    spec = get_experiment(experiment_id)
    return spec.run(config or ExperimentConfig())
