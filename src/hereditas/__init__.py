"""Variable selection under the strong heredity constraint.

Standardize the main effects, generate second-order columns from the
standardized mains, select with any off-the-shelf method, and back-
transform: the raw-scale model then always contains the parents of every
selected quadratic and interaction term.
"""

from .kernels import KERNEL
from .metrics import (
    SnrEstimate,
    TruthSpec,
    mse,
    msh,
    msh_counts,
    sensitivity,
    snr,
    specificity,
)
from .selectors import (
    FitResult,
    LassoOptions,
    StepwiseOptions,
    lambda_path,
    lasso_fit,
    ols_fit,
    stepwise_aic,
    tune_lasso,
)
from .simulate import (
    PRESETS,
    SettingConfig,
    build_truth,
    fit_pipeline,
    generate_replicate,
    preset,
    run_campaign,
    run_pipeline,
)
from .standardize import (
    CoefficientVector,
    LocationScale,
    RegularParams,
    back_transform_hierarchical,
    back_transform_regular,
    check_heredity,
    fit_location_scale,
    standardize_hierarchical,
    standardize_regular,
)
from .terms import TermId, TermSet, canonical_terms, expand, inter, main, quad

__version__ = "0.1.0"

__all__ = [
    "KERNEL",
    "__version__",
    "CoefficientVector",
    "FitResult",
    "LassoOptions",
    "LocationScale",
    "PRESETS",
    "RegularParams",
    "SettingConfig",
    "SnrEstimate",
    "StepwiseOptions",
    "TermId",
    "TermSet",
    "TruthSpec",
    "back_transform_hierarchical",
    "back_transform_regular",
    "build_truth",
    "canonical_terms",
    "check_heredity",
    "expand",
    "fit_location_scale",
    "fit_pipeline",
    "generate_replicate",
    "inter",
    "lambda_path",
    "lasso_fit",
    "main",
    "mse",
    "msh",
    "msh_counts",
    "ols_fit",
    "preset",
    "quad",
    "run_campaign",
    "run_pipeline",
    "sensitivity",
    "snr",
    "specificity",
    "standardize_hierarchical",
    "standardize_regular",
    "stepwise_aic",
    "tune_lasso",
]
