"""Theory layer: bound formulas, concentration inequalities, growth lemmas."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "bounds": [
            "HypercubeLadder",
            "bound_podc16_regular",
            "bound_spaa16_regular",
            "bound_spaa17_general",
            "bound_spaa17_regular",
            "gap_condition_holds",
            "hypercube_ladder",
            "lemma31_round_schedule",
            "lower_bound_cover",
            "restart_expectation_bound",
            "rho_scaled",
        ],
        "growth": [
            "PhaseSchedule",
            "cor52_candidate_bound",
            "expected_growth_curve",
            "lemma41_growth_bound",
            "lemma42_growth_bound",
            "lemma54_schedule",
        ],
        "martingale": [
            "TailCheck",
            "azuma_tail_bound",
            "check_azuma_on_paths",
            "corollary22_bound",
            "synthetic_supermartingale_paths",
        ],
        "predictions": ["PREDICTIONS", "FamilyPrediction", "prediction_for"],
        "meanfield": [
            "bips_complete_expected_next",
            "bips_complete_meanfield_trajectory",
            "cobra_complete_expected_next",
            "cobra_complete_meanfield_trajectory",
            "meanfield_rounds_to_cover",
        ],
    },
)
