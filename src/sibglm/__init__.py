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
    fit_glm,
    fit_glms,
    hat_diagonal,
    ols,
)
from .inference import SandwichCovariance, sandwich
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
    Estimate,
    Panel,
    half_sibling,
    run_estimator,
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

__version__ = "0.1.0"

__all__ = [
    "Family", "gaussian", "poisson", "bernoulli", "gamma", "family_from_name",
    "DomainError",
    "Design", "GlmFit", "design_with_intercept", "fit_glm", "fit_glms",
    "hat_diagonal", "ols",
    "SingularDesignError", "ConvergenceError",
    "RESIDUAL_KINDS", "raw", "fisher_scaled", "studentized",
    "deviance_residual", "LeverageError",
    "Panel", "Estimate", "NOISE_STRATEGIES", "half_sibling",
    "three_quarter_sibling",
    "sglm_denoise",
    "SandwichCovariance", "sandwich",
    "SimConfig", "SimTruth", "MetricsRecord", "GenerationError", "generate",
    "metrics", "replicate_seed", "to_panel",
    "run_estimator",
    "__version__",
]
