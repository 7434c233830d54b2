"""Generalized Rosenblatt process toolkit.

Kernels and their exact normalizing constant, discretized multiple
Wiener-Ito integral sampling, and the contraction integrals behind the
two boundary limit theorems.  The exact small-instance oracles the
sampler is checked against (Wick moments, the isometry and the product
formula) live with the tests, in tests/wick_oracle.py.
"""
# set before the submodules load: sampler records it in every batch's meta
__version__ = "0.15.0"

from .domain import BoundaryPath, DomainReport, Face, GammaVector, TrendTable, path_points, validate
from .errors import (
    DivergentIntegralError,
    DomainError,
    InvalidInputError,
    PathInfeasibleError,
    QuadratureError,
    RosenblattError,
    SizeError,
)
from .grid import GridSpec, build_grid, required_window, tail_fraction
from .kernel import (
    KernelSpec,
    constant_face_ratio,
    eval_kernel,
    normalizing_constant,
    normalizing_constant_sq,
)
from .sampler import (
    ChaosSampleBatch,
    discrete_second_moment,
    load_npz,
    sample_chaos,
    sample_process_increment,
    save_npz,
)
from .special import beta, log_beta

__all__ = [
    "__version__",
    "GammaVector",
    "DomainReport",
    "Face",
    "BoundaryPath",
    "validate",
    "path_points",
    "TrendTable",
    "beta",
    "log_beta",
    "KernelSpec",
    "normalizing_constant",
    "normalizing_constant_sq",
    "constant_face_ratio",
    "eval_kernel",
    "GridSpec",
    "build_grid",
    "tail_fraction",
    "required_window",
    "ChaosSampleBatch",
    "sample_chaos",
    "sample_process_increment",
    "discrete_second_moment",
    "save_npz",
    "load_npz",
    "RosenblattError",
    "InvalidInputError",
    "DomainError",
    "SizeError",
    "DivergentIntegralError",
    "PathInfeasibleError",
    "QuadratureError",
]
