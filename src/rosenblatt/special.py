"""Beta-function utilities and the closed-form cross integral.

The whole package leans on one analytic fact: for exponents g1, g2 in
(-1, -1/2) and s1 != s2,

    int_{-inf}^{min(s1,s2)} (s1-x)^g1 (s2-x)^g2 dx
        = (s2-s1)_+^(1+g1+g2) B(1+g1, -1-g1-g2)
        + (s1-s2)_+^(1+g1+g2) B(1+g2, -1-g1-g2).

Exactly one summand is nonzero.  Everything here is computed through
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

from .errors import DivergentIntegralError, DomainError

__all__ = [
    "beta",
    "log_beta",
    "beta_matrix",
    "permanent",
    "cross_integral",
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


def _check_exponent(g: float, name: str) -> None:
    if not (-1.0 < g < -0.5):
        raise DomainError(f"exponent {name}={g} outside the open interval (-1, -1/2)")


def cross_integral(s1: float, s2: float, g1: float, g2: float) -> float:
    """Closed form of int (s1-x)_+^g1 (s2-x)_+^g2 dx over the real line.

    Requires s1 != s2; at equal arguments the integrand behaves like
    (s-x)^(g1+g2) with g1+g2 < -1 near the upper limit and the integral
    diverges.
    """
    _check_exponent(g1, "g1")
    _check_exponent(g2, "g2")
    if s1 == s2:
        raise DivergentIntegralError(
            f"cross integral diverges at s1 = s2 = {s1} (exponent sum {g1 + g2} <= -1)",
            exponents={"g1+g2": g1 + g2},
        )
    power = 1.0 + g1 + g2
    if s2 > s1:
        return (s2 - s1) ** power * beta(1.0 + g1, -1.0 - g1 - g2)
    return (s1 - s2) ** power * beta(1.0 + g2, -1.0 - g1 - g2)
