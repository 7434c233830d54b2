"""Beta-function utilities: log-Beta, the Beta matrix and the permanent.

The whole package leans on one analytic fact: for exponents g1, g2 in
(-1, -1/2) and s1 != s2,

    int_{-inf}^{min(s1,s2)} (s1-x)^g1 (s2-x)^g2 dx
        = (s2-s1)_+^(1+g1+g2) B(1+g1, -1-g1-g2)
        + (s1-s2)_+^(1+g1+g2) B(1+g2, -1-g1-g2).

Exactly one summand is nonzero; `beta_matrix` holds its Beta
coefficients, and the closed form itself is checked against quadrature
in the tests (tests/helpers.py).  Everything here is computed through
log-Gamma, from the standard library's `math.lgamma`, so that
near-boundary exponents (second Beta argument down to 1e-9 and below) do
not overflow.
"""
from __future__ import annotations

import itertools
import math
import operator
from functools import reduce

import numpy as np

from .errors import DomainError

__all__ = [
    "beta",
    "log_beta",
    "beta_matrix",
    "permanent",
]


def log_beta(a: float, b: float) -> float:
    """log B(a,b) for strictly positive arguments."""
    if not (a > 0 and b > 0):
        raise DomainError(f"beta arguments must be positive, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta(a: float, b: float) -> float:
    """B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b), positive arguments only."""
    return math.exp(log_beta(a, b))


def beta_matrix(g) -> np.ndarray:
    """U[i, j] = B(g_i + 1, -g_i - g_j - 1), the coefficient of the
    orientation s_i < s_j in the cross integral of slots i and j."""
    return np.array([[beta(gi + 1.0, -gi - gj - 1.0) for gj in g] for gi in g])


def permanent(rows):
    """sum over permutations sigma of prod_i rows[i][sigma(i)], formed with
    `operator.mul` and `operator.add`: entries may be floats or arrays
    (entrywise, none copied).  A 0 x 0 input gives 1."""
    if len(rows) == 0:
        return 1.0
    perms = itertools.permutations(range(len(rows)))
    return reduce(operator.add, (reduce(operator.mul, [rows[i][j] for i, j in enumerate(s)]) for s in perms))
