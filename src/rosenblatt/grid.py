"""Discretization grids for chaos sampling.

A grid's cells cover [x_left, horizon] with x_left <= -horizon/2, and the
far past (-inf, x_left] is no cell at all: the sampler draws it from the
continuum far field, an exact Gram integral (see `sampler`).  So no
window has to reach far enough for the kernel's slowly decaying tail:
each kernel factor decays like |x|^g with g in (-1,-1/2), so the
variance mass below -X vanishes only like X^(1+g_i+g_j), painfully
slowly near the boundary faces.  `tail_fraction` and `required_window`
estimate what a grid cut off at a window would miss.

The process is H-self-similar (Bai & Taqqu, 2017), so `build_grid`
scales the unit-horizon grid by the horizon t: `cells` cells of width
t/cells on [0, t], and about cells/2 more left of 0 in `n_cells`.

The grid also fixes the quadrature in the time variable s that the
sampler uses to factorize kernels: one Gauss-Legendre node per cell inside
the time interval, cut at the interval's ends.  A grid therefore carries
no s-rule of its own, and refining the mesh refines the s-rule with it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import GammaVector, _integer, _real
from .errors import DomainError, InvalidInputError
from .kernel import KernelSpec, _horizon, normalizing_constant_sq
from .special import beta_matrix, permanent

__all__ = [
    "GridSpec",
    "tail_fraction",
    "required_window",
    "build_grid",
]

FAR_CAP = 1e250


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Cell edges from edges[0] <= -horizon/2 to at least the horizon;
    the past left of edges[0] is the sampler's continuum far field.  A
    grid keeps no kernel: one grid may serve any kernel of its horizon.

    The edges must be finite and strictly increasing, reach horizon on
    the right, and start at or left of -horizon/2: the far field's
    factors are analytic in s on [0, horizon] only from there on (see
    `sampler`).  A grid is immutable: its fields cannot be reassigned,
    and it holds a read-only float64 copy of the edges it is given.
    """

    edges: np.ndarray
    horizon: float

    def __post_init__(self):
        t = _horizon(self.horizon)
        try:
            edges = np.array(self.edges, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidInputError(f"grid edges must be real numbers, got {type(self.edges).__name__}") from None
        if edges.ndim != 1 or len(edges) < 2:
            raise InvalidInputError(f"grid edges must be at least two numbers in one dimension, got shape {edges.shape}")
        bad = np.flatnonzero(~np.isfinite(edges) | np.r_[False, edges[1:] <= edges[:-1]])
        if bad.size:
            raise InvalidInputError(
                f"grid edges must be finite and strictly increasing: edge {bad[0]} of {len(edges)} is not")
        if not (edges[0] <= -0.5 * t and edges[-1] >= t):
            raise InvalidInputError(
                f"grid edges must span [-horizon/2, horizon] = [{-0.5 * t}, {t}], got [{edges[0]}, {edges[-1]}]")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "horizon", t)

    @property
    def n_cells(self) -> int:
        return len(self.edges) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def far_left(self) -> float:
        """L = -edges[0]: the far field is everything left of -L."""
        return -float(self.edges[0])

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "n_cells": self.n_cells, "far_left": self.far_left}


def _tail_estimator(gamma, horizon: float):
    """`tail_fraction` as a function of the window, its q^2 terms built once."""
    t = _horizon(horizon)
    g = GammaVector(gamma).entries
    pairs = list(itertools.product(range(len(g)), repeat=2))
    u = beta_matrix(g)
    minors = np.array([permanent(np.delete(np.delete(u, i, 0), j, 1)) for i, j in pairs])
    expo = np.array([1.0 + g[i] + g[j] for i, j in pairs])
    rest = np.array([(len(g) - 1) + 2.0 * sum(g) - g[i] - g[j] for i, j in pairs])
    coef = 2.0 * normalizing_constant_sq(g) * minors / (-expo * (rest + 1.0) * (rest + 2.0))

    def fraction(window: float) -> float:
        return 1.0 if window <= t else min(1.0, float(coef @ (window / t) ** expo))

    return fraction


def tail_fraction(gamma, window: float, horizon: float = 1.0) -> float:
    """Estimated fraction of the process variance carried by kernel mass
    with any coordinate below -window; a NaN window raises.

    The variance t^(alpha+2) / A^2 is a sum over pairings of slots.
    Dropping pair (i, j) puts the tail integral window^a / (-a),
    a = 1 + g_i + g_j, in place of its cross integral and leaves the
    permanent of the Beta matrix U without row i and column j:

        tail = min(1, 2 A^2 sum_ij perm(U_-i-j) (window/t)^a_ij
                                  / (-a_ij (r_ij + 1)(r_ij + 2))),

    r_ij = (q-1) + 2 sum(g) - g_i - g_j being the other pairs' exponent
    sum.  Union bound over coordinates; accurate for window >> horizon.
    """
    window = _real(window, "window")
    if math.isnan(window):
        raise InvalidInputError("tail fraction of a NaN window")
    return _tail_estimator(gamma, horizon)(window)


def required_window(gamma, tolerance: float, horizon: float = 1.0) -> float:
    """Smallest window with estimated tail fraction <= tolerance.

    Bisects the log-window, on which the fraction is monotone, until the
    midpoint no longer moves (about 60 steps), and returns the upper end;
    the fraction's power terms are built once, before the bisection.
    Returns inf when even FAR_CAP = 1e250 misses the tolerance
    (near-face exponents make the requirement leave the float64 range).
    """
    tolerance = _real(tolerance, "tolerance")
    if not 0 < tolerance < 1:
        raise InvalidInputError(f"tolerance must be in (0,1), got {tolerance}")
    t = _horizon(horizon)
    fraction = _tail_estimator(gamma, t)
    if fraction(FAR_CAP) > tolerance:
        return math.inf
    lo, hi = math.log(max(t, 1e-6)), math.log(FAR_CAP)
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if fraction(math.exp(mid)) > tolerance:
            lo = mid
        else:
            hi = mid
    return math.exp(hi)


def build_grid(kernel: KernelSpec, cells: int | None = None) -> GridSpec:
    """The uniform grid for the kernel, cut to the sampler's near zone.

    `cells` (default 455 for q <= 2, 114 otherwise) cells of width
    t/cells cover [0, t], t the horizon, so increments over [0, t]
    aggregate whole cells, and the sampler's s-rule, one node per cell
    inside [0, t], refines with them.  The mesh runs on to the largest
    edge at or left of -t/2, beyond which lies the sampler's continuum
    far field, so `n_cells` is about 1.5 x `cells` (683 and 171 by
    default).  The grid at horizon t is the unit one scaled by t; a mesh
    width t/cells below the smallest normal float raises DomainError.
    """
    if cells is None:
        cells = 114 if kernel.q >= 3 else 455
    if _integer(cells, "cells") < 1:
        raise InvalidInputError(f"cells must be a positive integer, got {cells}")
    t = kernel.horizon
    if t / cells < np.finfo(float).tiny:
        raise DomainError(f"the mesh width t/{cells} is subnormal at horizon {t}")
    edges = np.concatenate([np.linspace(-t, 0.0, cells + 1)[:-1], np.linspace(0.0, t, cells + 1)])
    first = int(np.searchsorted(edges, -0.5 * t, side="right")) - 1
    return GridSpec(edges=edges[first:], horizon=t)
