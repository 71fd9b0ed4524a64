"""Core processes: COBRA, its dual BIPS, exact chains, and the duality check."""

from .bips import (
    BipsProcess,
    candidate_set,
    default_infection_cap,
    fixed_set,
    infection_time,
    infection_time_samples,
)
from .coupling import (
    SelectionTable,
    bips_replay,
    bips_replay_multi,
    cobra_replay,
    coupling_equivalence_holds,
    set_coupling_equivalence_holds,
)
from .branching import (
    BernoulliBranching,
    BranchingPolicy,
    FixedBranching,
    make_policy,
)
from .cobra import (
    CobraProcess,
    cover_time,
    cover_time_samples,
    default_round_cap,
    hit_time_samples,
)
from .duality import (
    DualityReport,
    verify_duality_exact,
    verify_duality_monte_carlo,
)
from .hitting import (
    cobra_hit_survival_mc,
    commute_time,
    random_walk_hitting_time,
    random_walk_hitting_times,
)
from .metrics import (
    CoverProfile,
    TransmissionReport,
    cobra_transmission_report,
    per_vertex_load,
    worst_start_cover,
)
from .exact import (
    BipsExact,
    bips_absorption_rate,
    bips_exact,
    cobra_cover_survival_exact,
    cobra_hit_survival_exact,
    exact_cover_expectation,
    exact_cover_of_graph,
    expected_time_from_survival,
)
from .serialization import (
    RoundRecord,
    SerializedBips,
    StepRecord,
    collect_increments,
)
from .state import BipsResult, CobraResult
from .trajectories import (
    TrajectoryEnsemble,
    bips_size_ensemble,
    cobra_coverage_ensemble,
)

__all__ = [
    "SelectionTable",
    "bips_replay",
    "bips_replay_multi",
    "cobra_replay",
    "coupling_equivalence_holds",
    "set_coupling_equivalence_holds",
    "BipsProcess",
    "candidate_set",
    "default_infection_cap",
    "fixed_set",
    "infection_time",
    "infection_time_samples",
    "BernoulliBranching",
    "BranchingPolicy",
    "FixedBranching",
    "make_policy",
    "CobraProcess",
    "cover_time",
    "cover_time_samples",
    "default_round_cap",
    "hit_time_samples",
    "DualityReport",
    "verify_duality_exact",
    "verify_duality_monte_carlo",
    "BipsExact",
    "bips_absorption_rate",
    "bips_exact",
    "cobra_cover_survival_exact",
    "cobra_hit_survival_exact",
    "exact_cover_expectation",
    "exact_cover_of_graph",
    "expected_time_from_survival",
    "RoundRecord",
    "SerializedBips",
    "StepRecord",
    "collect_increments",
    "BipsResult",
    "CobraResult",
    "CoverProfile",
    "TransmissionReport",
    "cobra_transmission_report",
    "per_vertex_load",
    "worst_start_cover",
    "cobra_hit_survival_mc",
    "commute_time",
    "random_walk_hitting_time",
    "random_walk_hitting_times",
    "TrajectoryEnsemble",
    "bips_size_ensemble",
    "cobra_coverage_ensemble",
]
