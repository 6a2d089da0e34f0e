"""Tunable alpha-loss family in the logistic model: pointwise losses and
derivatives, empirical risk landscapes, strong-convexity and SLQC
certificates, normalized gradient descent, an information-theoretic layer
for discrete joints, and seeded Gaussian-mixture data generation."""

from .errors import AlphaLossError, DomainError, NumericError, ParseError, UsageError
from .loss import (
    INFINITY,
    alpha_loss,
    curvature_floor,
    format_alpha,
    grad_lipschitz_in_inv_alpha,
    lipschitz_in_inv_alpha,
    lipschitz_in_theta,
    parse_alpha,
)
from .numerics import RngState, cholesky, log_sigmoid, min_eigen_sym, project_ball, sigmoid
from .risk import (
    Dataset,
    GridSpec,
    empirical_risk,
    empirical_risk_grad,
    empirical_risk_hess,
    landscape_scans,
    saturation_sup,
    value_and_grad,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaLossError",
    "DomainError",
    "NumericError",
    "ParseError",
    "UsageError",
    "INFINITY",
    "alpha_loss",
    "curvature_floor",
    "format_alpha",
    "grad_lipschitz_in_inv_alpha",
    "lipschitz_in_inv_alpha",
    "lipschitz_in_theta",
    "parse_alpha",
    "RngState",
    "cholesky",
    "log_sigmoid",
    "min_eigen_sym",
    "project_ball",
    "sigmoid",
    "Dataset",
    "GridSpec",
    "empirical_risk",
    "empirical_risk_grad",
    "empirical_risk_hess",
    "landscape_scans",
    "saturation_sup",
    "value_and_grad",
    "__version__",
]
