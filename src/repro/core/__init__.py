"""Core processes: COBRA, its dual BIPS, exact chains, and the duality check."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "coupling": [
            "SelectionTable",
            "bips_replay",
            "cobra_replay",
            "coupling_equivalence_holds",
        ],
        "bips": [
            "BipsProcess",
            "candidate_set",
            "fixed_set",
            "infection_time",
            "infection_time_samples",
        ],
        "branching": [
            "BernoulliBranching",
            "BranchingPolicy",
            "FixedBranching",
            "make_policy",
        ],
        "cobra": [
            "CobraProcess",
            "cover_time",
            "cover_time_samples",
            "default_round_cap",
            "hit_time_samples",
        ],
        "duality": [
            "DualityReport",
            "verify_duality_exact",
            "verify_duality_monte_carlo",
        ],
        "exact": [
            "BipsExact",
            "bips_exact",
            "cobra_cover_survival_exact",
            "cobra_hit_survival_exact",
            "exact_cover_expectation",
            "expected_time_from_survival",
        ],
        "serialization": [
            "RoundRecord",
            "SerializedBips",
            "StepRecord",
            "collect_increments",
        ],
        "state": ["BipsResult", "CobraResult"],
        "metrics": [
            "CoverProfile",
            "TransmissionReport",
            "cobra_transmission_report",
            "per_vertex_load",
            "worst_start_cover",
        ],
        "hitting": [
            "cobra_hit_survival_mc",
            "random_walk_hitting_time",
            "random_walk_hitting_times",
        ],
        "trajectories": [
            "TrajectoryEnsemble",
            "bips_size_ensemble",
            "cobra_coverage_ensemble",
        ],
    },
)
