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

import math

from .errors import DivergentIntegralError, DomainError

__all__ = [
    "beta",
    "log_beta",
    "pairing_weights",
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


def pairing_weights(g, pairs) -> tuple[float, float]:
    """Beta products of the cross integrals of the slot pairs (i, j).

    Returns (up, down) = (prod B(g_i+1, -g_i-g_j-1), prod B(g_j+1, -g_i-g_j-1)),
    the coefficients of the two orientations s_i < s_j and s_i > s_j of
    each pair's cross integral, multiplied over the pairs.  Each is the
    exp of a log-Beta sum taken in the order of `pairs`; no pairs give 1.
    """
    pairs = tuple(pairs)
    up = math.exp(sum(log_beta(g[i] + 1.0, -g[i] - g[j] - 1.0) for i, j in pairs))
    down = math.exp(sum(log_beta(g[j] + 1.0, -g[i] - g[j] - 1.0) for i, j in pairs))
    return up, down


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
