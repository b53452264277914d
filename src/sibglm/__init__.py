"""Sibling regression for generalized linear models.

Estimate and remove a shared latent noise term that acts additively on
the natural parameter of exponential-family response series: canonical
GLM fitting, information-scaled residuals, sibling estimators, the
staged denoising pipeline, misspecification-robust (sandwich)
covariance, and a seeded simulation benchmark.
"""

from .families import (
    DomainError,
    Family,
    bernoulli,
    family_from_name,
    gamma,
    gaussian,
    poisson,
)
from .glm import (
    ConvergenceError,
    Design,
    GlmFit,
    SingularDesignError,
    design_with_intercept,
    evaluate_at,
    fit_glm,
    fit_glms,
    hat_diagonal,
    log_likelihood,
    ols,
    predict,
)
from .inference import SandwichCovariance, relative_efficiency, sandwich
from .residuals import (
    RESIDUAL_KINDS,
    LeverageError,
    deviance_residual,
    fisher_scaled,
    raw,
    studentized,
)
from .sibling import (
    NOISE_STRATEGIES,
    Panel,
    SglmResult,
    half_sibling,
    sglm_denoise,
    three_quarter_sibling,
)
from .simulate import (
    GenerationError,
    MetricsRecord,
    SimConfig,
    SimTruth,
    generate,
    metrics,
    replicate_seed,
    to_panel,
)
from .benchmark import Estimate, run_estimator

__version__ = "0.1.0"

__all__ = [
    "Family", "gaussian", "poisson", "bernoulli", "gamma", "family_from_name",
    "DomainError",
    "Design", "GlmFit", "design_with_intercept", "fit_glm", "fit_glms",
    "evaluate_at", "predict", "hat_diagonal", "log_likelihood", "ols",
    "SingularDesignError", "ConvergenceError",
    "RESIDUAL_KINDS", "raw", "fisher_scaled", "studentized",
    "deviance_residual", "LeverageError",
    "Panel", "SglmResult", "NOISE_STRATEGIES", "half_sibling",
    "three_quarter_sibling",
    "sglm_denoise",
    "SandwichCovariance", "sandwich", "relative_efficiency",
    "SimConfig", "SimTruth", "MetricsRecord", "GenerationError", "generate",
    "metrics", "replicate_seed", "to_panel",
    "Estimate", "run_estimator",
    "__version__",
]
