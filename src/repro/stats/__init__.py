"""Statistics toolkit: estimators, scaling fits, survival curves, seeding."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "comparison": [
            "ComparisonResult",
            "ks_compare",
            "permutation_mean_test",
            "same_distribution",
        ],
        "estimators": ["Estimate", "mean_ci", "quantile_estimate", "whp_quantile"],
        "regression": ["PowerLawFit", "fit_polylog", "fit_power_law"],
        "rng": [
            "generator_from",
            "seed_sequence_from",
            "spawn_generators",
            "spawn_seeds",
        ],
        "survival": ["SurvivalCurve", "empirical_survival"],
    },
)
