"""Case-crossover analysis of paired environmental exposures.

Builds time-stratified matched sets from gridded daily exposure fields, fits
conditional logistic regression with natural cubic spline bases (maximum
likelihood and MCMC posterior sampling), and summarizes odds-ratio contrasts
and additive interaction (RERI) between two continuous exposures.
"""

__version__ = "0.1.0"

from .clr import (
    ConditionalLikelihood,
    FitResult,
    PriorSpec,
    SamplerConfig,
    fit_bayes,
    fit_mle,
    gradient,
    hessian,
    log_likelihood,
)
from .config import AnalysisConfig, load_config, validate_config
from .design import (
    DayRecord,
    MatchedRows,
    MatchedSet,
    apply_trimming,
    build_matched_sets,
    select_referents,
)
from .effects import (
    ContrastLevels,
    EffectEstimate,
    case_day_levels,
    mult_interaction,
    or_contrast,
    reri,
    response_curve,
    risk_surface,
)
from .errors import (
    CaseCrossError,
    ConfigurationError,
    ConvergenceError,
    DegenerateDataError,
    EmptyAnalysisError,
    SeparationError,
    UnsupportedModelError,
)
from .exposure import (
    PM25,
    TEMPERATURE,
    DailyTable,
    link_pm25,
    link_temperature,
)
from .quantiles import type1_quantile
from .simulate import TruthSpec, brute_force_set_probability, generate, linear_truth
from .splines import (
    BasisSpec,
    DesignMatrix,
    ModelBasis,
    design_matrix,
    eval_natural_cubic,
    fit_knots,
    fit_model_basis,
)

__all__ = [
    "__version__",
    "AnalysisConfig",
    "BasisSpec",
    "CaseCrossError",
    "ConditionalLikelihood",
    "ConfigurationError",
    "ContrastLevels",
    "ConvergenceError",
    "DailyTable",
    "DayRecord",
    "DegenerateDataError",
    "DesignMatrix",
    "EffectEstimate",
    "EmptyAnalysisError",
    "FitResult",
    "MatchedRows",
    "MatchedSet",
    "ModelBasis",
    "PM25",
    "PriorSpec",
    "SamplerConfig",
    "SeparationError",
    "TEMPERATURE",
    "TruthSpec",
    "UnsupportedModelError",
    "apply_trimming",
    "brute_force_set_probability",
    "build_matched_sets",
    "case_day_levels",
    "design_matrix",
    "eval_natural_cubic",
    "fit_bayes",
    "fit_knots",
    "fit_mle",
    "fit_model_basis",
    "generate",
    "gradient",
    "hessian",
    "linear_truth",
    "link_pm25",
    "link_temperature",
    "load_config",
    "log_likelihood",
    "mult_interaction",
    "or_contrast",
    "reri",
    "response_curve",
    "risk_surface",
    "select_referents",
    "type1_quantile",
    "validate_config",
]
