"""Entangled neutral-meson pairs: quantum joint flavor-tag probabilities,
a Selleri-type local-realistic model with hidden-state-dependent detection
efficiency, weight fitting, Clauser-Horne tooling and a seeded event oracle.
"""

from .constants import (
    BMESON,
    KAON,
    BranchingRecord,
    OscillationParams,
    branching_records,
    semileptonic_total,
    species_params,
)
from .quantum import (
    Flavor,
    FlavorOutcome,
    QuadratureError,
    TimePair,
    asymmetry,
    integrated_ratio,
    qm_flavor_table,
    qm_like_joint,
    qm_unlike_joint,
)
from .lrm import (
    HIDDEN_STATES,
    INITIAL_PAIRS,
    EfficiencyWeights,
    HiddenState,
    InadmissibleRhoError,
    RhoProfile,
    TimeOrderingError,
    WeightRangeError,
    joint_probabilities,
    lrm_like_joint,
    p21_conditional,
    p43_conditional,
    q_minus,
    q_plus,
    rho_bounds,
    survival,
)
from .fitting import (
    CurveTable,
    FitProblem,
    FitResult,
    TrivialWeightsResult,
    default_grid,
    evaluate_gap,
    fit_constant_weights,
    trivial_weights,
)
from .bell import (
    EFFICIENCY_THRESHOLD_MAXIMAL,
    EFFICIENCY_THRESHOLD_NONMAXIMAL,
    BruteForceReport,
    CorrelationSet,
    LocalStrategy,
    ThresholdVerdict,
    chs_sum,
    lhv_bound_brute_force,
    singlet_photon_correlations,
    threshold_check,
)
from .montecarlo import EventRecord, SimConfig, SimResult, first_events, simulate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # constants
    "OscillationParams", "BranchingRecord", "KAON", "BMESON",
    "species_params", "branching_records", "semileptonic_total",
    # quantum
    "TimePair", "Flavor", "FlavorOutcome", "QuadratureError",
    "qm_like_joint", "qm_unlike_joint", "qm_flavor_table",
    "asymmetry", "integrated_ratio",
    # lrm
    "HiddenState", "HIDDEN_STATES", "INITIAL_PAIRS",
    "RhoProfile", "EfficiencyWeights",
    "InadmissibleRhoError", "TimeOrderingError", "WeightRangeError",
    "survival", "q_plus", "q_minus", "rho_bounds",
    "p21_conditional", "p43_conditional", "joint_probabilities", "lrm_like_joint",
    # fitting
    "FitProblem", "FitResult", "TrivialWeightsResult", "CurveTable",
    "default_grid", "trivial_weights", "fit_constant_weights", "evaluate_gap",
    # bell
    "CorrelationSet", "LocalStrategy", "BruteForceReport", "ThresholdVerdict",
    "EFFICIENCY_THRESHOLD_MAXIMAL", "EFFICIENCY_THRESHOLD_NONMAXIMAL",
    "chs_sum", "lhv_bound_brute_force", "singlet_photon_correlations", "threshold_check",
    # montecarlo
    "SimConfig", "SimResult", "EventRecord", "simulate", "first_events",
]
