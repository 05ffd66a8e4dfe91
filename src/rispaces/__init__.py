"""Numerical laboratory for rearrangement-invariant function spaces on (0, 1):
norms, K-functionals, and empirical brackets for interpolation identities."""

from .config import DEFAULT, Resolution
from .rearrangement import (
    Char,
    ExplicitSteps,
    PowerLog,
    Samples,
    StepFunction,
    StepRearrangement,
    discretize_model,
    evaluate_at,
    power_integral,
    rearrange_from_samples,
)
from .logcalc import (
    LogWeight,
    MonotoneMap,
    UGrid,
    invert_monotone,
    log_integral_bounds_check,
    log_weight_integral,
    sup_on_grid,
)
from .norms import (
    GammaDouble,
    Grand,
    Lebesgue,
    LorentzZygmund,
    Small,
    fundamental_function,
    ggamma_lower_bound_check,
    ggamma_norm,
    grand_norm,
    lebesgue_norm,
    lorentz_zygmund_norm,
    small_norm,
    space_norm,
)
from .kfunctional import (
    General,
    GrandGrand,
    GrandLq,
    GrandSmallSameP,
    KCurve,
    LpLq,
    SmallSmall,
    check_C_conditions,
    k_curve,
    k_explicit,
    k_oracle,
)
from .interpolation import (
    InterpParams,
    derived_exponents,
    identify_target,
    interp_norm,
    z_norm,
    z_norm_alt,
)
from .equivharness import (
    EquivReport,
    FunctionFamily,
    associate_lower_bound,
    discretization_check,
    hardy_check,
    lemma31_33_check,
    prop32_check,
    run_identity_experiment,
    standard_family,
    sup_smoothing_check,
)

__all__ = [
    "DEFAULT", "Resolution", "Char", "ExplicitSteps", "PowerLog", "Samples",
    "StepFunction", "StepRearrangement", "discretize_model", "evaluate_at",
    "power_integral", "rearrange_from_samples", "LogWeight", "MonotoneMap", "UGrid",
    "invert_monotone", "log_integral_bounds_check", "log_weight_integral",
    "sup_on_grid", "GammaDouble", "Grand", "Lebesgue", "LorentzZygmund", "Small",
    "fundamental_function", "ggamma_lower_bound_check", "ggamma_norm", "grand_norm",
    "lebesgue_norm", "lorentz_zygmund_norm", "small_norm", "space_norm", "General",
    "GrandGrand", "GrandLq", "GrandSmallSameP", "KCurve", "LpLq", "SmallSmall",
    "check_C_conditions", "k_curve", "k_explicit", "k_oracle", "InterpParams",
    "derived_exponents", "identify_target", "interp_norm", "z_norm", "z_norm_alt",
    "EquivReport", "FunctionFamily", "associate_lower_bound", "discretization_check",
    "hardy_check", "lemma31_33_check", "prop32_check", "run_identity_experiment",
    "standard_family", "sup_smoothing_check",
]

__version__ = "0.1.0"
