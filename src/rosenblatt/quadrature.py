"""Cached Gauss rules and the graded composite rule for endpoint power singularities.

Every fixed quadrature in the package comes from here, except the
sampler's one-node-per-cell s-rule: the kernel's s-integral, and every
axis of the cycle and indicator quadratures.  The graded rule follows
Schwab's variable-order design (Computing 53, 1994): panel chains shrink
geometrically into each end, the corner panel absorbs its end power
exactly through a Gauss-Jacobi rule, and the remaining end powers are
folded into the weights.

Cached arrays are read-only, since every caller shares them.
"""
from __future__ import annotations

import functools

import numpy as np
from scipy import special as sp

__all__ = ["gauss_legendre", "gauss_jacobi", "graded_rule"]


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def gauss_legendre(p: int):
    """p-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return _frozen(*sp.roots_legendre(p))


@functools.lru_cache(maxsize=512)
def gauss_jacobi(p: int, exponent: float):
    """p-point rule for the weight (1+x)^exponent on [-1, 1]; 0 gives Legendre."""
    return _frozen(*sp.roots_jacobi(p, 0.0, exponent))


@functools.lru_cache(maxsize=256)
def graded_rule(n_lo: int, n_hi: int, ratio: float, order: int,
                alpha_lo=None, alpha_hi=None):
    """Composite rule on (0,1) with the edge powers folded into the weights.

    Approximates int_0^1 x^alpha_lo (1-x)^alpha_hi f(x) dx as sum(w f(x));
    None means no power at that edge.  n_lo panels shrink geometrically
    by `ratio` from 1/2 into 0 and n_hi into 1.  A corner panel absorbs
    its own edge power through a Jacobi rule; every other power is
    evaluated explicitly.  Nodes are built as distances from their own
    edge, so the returned (x, 1 - x, w) keeps both x and 1 - x accurate.
    """
    xg, wg = gauss_legendre(order)
    sides = []
    for n, own, other in ((n_lo, alpha_lo, alpha_hi), (n_hi, alpha_hi, alpha_lo)):
        edges = np.concatenate(([0.0], 0.5 * ratio ** np.arange(n - 1, -1, -1.0)))
        half = 0.5 * np.diff(edges)[:, None]
        d = edges[:-1, None] + half * (1.0 + xg)
        w = half * wg
        if own is not None:
            xj, wj = gauss_jacobi(order, own)
            d[0] = half[0] * (1.0 + xj)
            w[0] = half[0] ** (own + 1.0) * wj
            w[1:] *= d[1:] ** own
        d, w = d.ravel(), w.ravel()
        if other is not None:
            w = w * (1.0 - d) ** other
        sides.append((d, w))
    (d_lo, w_lo), (d_hi, w_hi) = sides
    return _frozen(
        np.concatenate((d_lo, 1.0 - d_hi)),
        np.concatenate((1.0 - d_lo, d_hi)),
        np.concatenate((w_lo, w_hi)),
    )
