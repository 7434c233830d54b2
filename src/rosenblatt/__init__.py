"""Generalized Rosenblatt process toolkit.

Kernels and their exact normalizing constant, discretized multiple
Wiener-Ito integral sampling with exact small-instance oracles, and the
contraction integrals behind the two boundary limit theorems.
"""
from .domain import BoundaryPath, DomainReport, Face, GammaVector, path_points, validate
from .errors import (
    DivergentIntegralError,
    DomainError,
    GridTooSmallError,
    InvalidInputError,
    PathInfeasibleError,
    QuadratureError,
    RosenblattError,
    SizeError,
)
from .grid import GridSpec, build_grid, required_window, s_rule, tail_fraction
from .kernel import (
    KernelSpec,
    ScalingMap,
    constant_face_ratio,
    eval_kernel,
    normalizing_constant,
    normalizing_constant_sq,
    scaling_map,
)
from .sampler import (
    ChaosSampleBatch,
    discrete_second_moment,
    load_npz,
    sample_chaos,
    sample_process_increment,
    save_npz,
)
from .special import beta, beta_small_alpha_probe, cross_integral, log_beta
from .wick import (
    WickExpression,
    discrete_isometry_check,
    discrete_product_formula_check,
    hermite_expression,
    offdiag_expression,
    wick_moment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GammaVector",
    "DomainReport",
    "Face",
    "BoundaryPath",
    "validate",
    "path_points",
    "beta",
    "log_beta",
    "cross_integral",
    "beta_small_alpha_probe",
    "KernelSpec",
    "ScalingMap",
    "normalizing_constant",
    "normalizing_constant_sq",
    "constant_face_ratio",
    "eval_kernel",
    "scaling_map",
    "GridSpec",
    "build_grid",
    "s_rule",
    "tail_fraction",
    "required_window",
    "ChaosSampleBatch",
    "sample_chaos",
    "sample_process_increment",
    "discrete_second_moment",
    "save_npz",
    "load_npz",
    "WickExpression",
    "wick_moment",
    "offdiag_expression",
    "hermite_expression",
    "discrete_isometry_check",
    "discrete_product_formula_check",
    "RosenblattError",
    "InvalidInputError",
    "DomainError",
    "SizeError",
    "DivergentIntegralError",
    "PathInfeasibleError",
    "QuadratureError",
    "GridTooSmallError",
]
