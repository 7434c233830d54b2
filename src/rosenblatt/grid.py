"""Discretization grids for chaos sampling.

A grid is one uniform mesh: `cells` cells of width t/cells on [0, t], t
the horizon, continued left of 0 down to the largest mesh edge at or left
of -t/8.  The far past beyond that edge is no cell at all: the sampler
draws it from the continuum far field, an exact Gram integral (see
`sampler`).  So no window has to reach far enough for the kernel's slowly
decaying tail: each kernel factor decays like |x|^g with g in (-1,-1/2),
so the variance mass below -X vanishes only like X^(1+g_i+g_j), painfully
slowly near the boundary faces.  `tail_fraction` and `required_window`
estimate what a grid cut off at a window would miss.

The process is H-self-similar with stationary increments (Bai & Taqqu,
2017), so a grid's shape does not depend on the horizon: the grid at
horizon t is the unit one scaled by t, with `cells` cells on [0, t] and
ceil(cells/8) more left of 0 in `n_cells`.

The grid also fixes the quadrature in the time variable s that the
sampler uses to factorize kernels: one Gauss-Legendre node per cell inside
the time interval, cut at the interval's ends.  A grid therefore carries
no s-rule of its own, and refining the mesh refines the s-rule with it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
# the far field starts at the largest mesh edge at or left of -t/_FAR_DIVISOR
_FAR_DIVISOR = 8


@dataclass(frozen=True, eq=False)
class GridSpec:
    """The uniform mesh of `cells` cells of width t/cells on [0, t], t the
    horizon, continued left of 0 by ceil(cells/8) cells of the same width,
    so its first edge is the largest mesh edge at or left of -t/8; the past
    left of that edge is the sampler's continuum far field, whose factors
    are analytic in s on [0, t] (see `sampler`).  A grid keeps no kernel:
    one grid may serve any kernel of its horizon.

    `cells` is a positive integer, and a mesh width t/cells below the
    smallest normal float raises DomainError.  A grid is immutable: its
    fields cannot be reassigned, and its `edges` are a read-only float64
    array derived from (horizon, cells).
    """

    horizon: float
    cells: int
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = _horizon(self.horizon)
        cells = _integer(self.cells, "cells")
        if cells < 1:
            raise InvalidInputError(f"cells must be a positive integer, got {self.cells}")
        if t / cells < np.finfo(float).tiny:
            raise DomainError(f"the mesh width t/{cells} is subnormal at horizon {t}")
        edges = np.concatenate([np.linspace(-t, 0.0, cells + 1)[:-1], np.linspace(0.0, t, cells + 1)])
        edges.flags.writeable = False
        # ceil(cells/8) cells left of 0, counted rather than found by
        # comparing edges with -t/8, which a rounded edge just right of
        # -t/8 would pass by one cell at some horizons
        left = -(-cells // _FAR_DIVISOR)
        edges = edges[cells - left :]
        object.__setattr__(self, "horizon", t)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "edges", edges)

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
    """The kernel's grid: GridSpec(kernel.horizon, cells), with `cells`
    defaulting to 455 for q <= 2 and 114 otherwise, so `n_cells` is 512
    and 129 by default: cells/8 of them, rounded up, lie left of 0."""
    if cells is None:
        cells = 114 if kernel.q >= 3 else 455
    return GridSpec(kernel.horizon, cells)
