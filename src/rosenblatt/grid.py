"""Discretization grids for chaos sampling.

A grid covers (x_left, horizon] with a uniform core around the origin
plus a geometric far-field extension to the left.  The far field matters:
each kernel factor decays like |x|^g with g in (-1,-1/2), so the variance
mass below -X vanishes only like X^(1+g_i+g_j), painfully slowly near the
boundary faces.  The closed-form tail estimator quantifies that and sizes
the window; where the required window exceeds what float64 can express
the grid caps out and records the achieved estimate instead.

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

from .errors import GridTooSmallError, InvalidInputError
from .kernel import KernelSpec
from .special import pairing_weights

__all__ = [
    "GridSpec",
    "tail_fraction",
    "required_window",
    "build_grid",
    "check_tail_bound",
]

FAR_CAP = 1e250
CORE_LEFT = 8.0
TAIL_TOLERANCE = 1e-3


@dataclass(eq=False)
class GridSpec:
    """Cell edges plus tail bookkeeping."""

    edges: np.ndarray
    core_left: float
    mesh: float
    horizon: float
    tail_tolerance: float
    tail_estimate: float
    enforce_tail_bound: bool = False
    ratio: float = 1.0

    @property
    def n_cells(self) -> int:
        return len(self.edges) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def far_left(self) -> float:
        return -float(self.edges[0])

    def to_dict(self) -> dict:
        return {
            "core_left": self.core_left,
            "mesh": self.mesh,
            "horizon": self.horizon,
            "n_cells": self.n_cells,
            "far_left": self.far_left,
            "ratio": self.ratio,
            "tail_tolerance": self.tail_tolerance,
            "tail_estimate": self.tail_estimate,
            "enforce_tail_bound": self.enforce_tail_bound,
        }


def tail_fraction(gamma, window: float, horizon: float = 1.0) -> float:
    """Estimated fraction of the process variance carried by kernel mass
    with any coordinate below -window.

    Built from the same permutation-sum reduction as the normalizing
    constant: dropping coordinate i replaces its cross integral by the
    analytic tail integral window^(1+g_i+g_sigma(i)) / |1+g_i+g_sigma(i)|.
    Union bound over coordinates; accurate for window >> horizon.
    """
    g = tuple(float(v) for v in gamma)
    q = len(g)
    t = float(horizon)
    if window <= t:
        return 1.0
    total = 0.0
    tail = 0.0
    for sigma in itertools.permutations(range(q)):
        pairs = tuple(zip(range(q), sigma))
        alpha = sum(1.0 + g[i] + g[j] for i, j in pairs)
        # both orientations of the double integral carry the same exponent
        full = sum(pairing_weights(g, pairs)) / ((alpha + 1.0) * (alpha + 2.0))
        total += full * t ** (alpha + 2.0)
        for i, j in pairs:
            a_i = 1.0 + g[i] + g[j]
            tail_i = window**a_i / (-a_i)
            others = pairs[:i] + pairs[i + 1:]
            alpha_rest = sum(1.0 + g[k] + g[m] for k, m in others)
            rest = sum(pairing_weights(g, others)) / ((alpha_rest + 1.0) * (alpha_rest + 2.0))
            tail += tail_i * rest * t ** (alpha_rest + 2.0)
    return min(tail / total, 1.0)


def required_window(gamma, tolerance: float, horizon: float = 1.0) -> float:
    """Smallest window with estimated tail fraction <= tolerance.

    Bisects the log-window, on which the fraction is monotone, until the
    midpoint no longer moves (about 60 steps), and returns the upper end.
    Returns inf when even FAR_CAP = 1e250 misses the tolerance
    (near-face exponents make the requirement leave the float64 range).
    """
    if not 0 < tolerance < 1:
        raise InvalidInputError(f"tolerance must be in (0,1), got {tolerance}")
    if tail_fraction(gamma, FAR_CAP, horizon) > tolerance:
        return math.inf
    lo, hi = math.log(max(horizon, 1e-6)), math.log(FAR_CAP)
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if tail_fraction(gamma, math.exp(mid), horizon) > tolerance:
            lo = mid
        else:
            hi = mid
    return math.exp(hi)


def build_grid(
    kernel: KernelSpec,
    n_core: int | None = None,
    enforce_tail_bound: bool = False,
) -> GridSpec:
    """Size a grid for the kernel: uniform core, geometric far field.

    The core is uniform on [-CORE_LEFT, horizon] = [-8, t] with n_core
    cells (default 4096 for q <= 2, 1024 otherwise); -1 and 0 fall
    exactly on edges (increments over [0,t] then aggregate whole cells).
    The far field extends leftward with widths growing by 1.06 per cell
    for q <= 2 and 1.12 otherwise, until the tail estimate meets
    TAIL_TOLERANCE = 1e-3 or the window hits FAR_CAP = 1e250; a grid
    capped there records the tail estimate it reached, and raises at
    sampling time only when `enforce_tail_bound` is set.  The sampler's
    s-rule has one node per cell inside [0, t], so n_core also sets it.
    """
    q = kernel.q
    if n_core is None:
        n_core = 1024 if q >= 3 else 4096
    if not isinstance(n_core, (int, np.integer)) or n_core < 8 * q:
        raise InvalidInputError(f"n_core must be an integer of at least {8 * q} for order {q}, got {n_core!r}")
    ratio = 1.06 if q <= 2 else 1.12
    t = kernel.horizon

    # uniform core, built piecewise so that -1 and 0 are exact edges; the
    # step is summed in this order because the pinned default grids
    # depend on it bit for bit
    h = ((1.0 + t) + (CORE_LEFT - 1.0)) / n_core
    n_right = max(1, round(t / h))
    n_mid = max(1, round(1.0 / h))
    n_left = max(1, round((CORE_LEFT - 1.0) / h))
    right = np.linspace(0.0, t, n_right + 1)
    mid = np.linspace(-1.0, 0.0, n_mid + 1)
    left = np.linspace(-CORE_LEFT, -1.0, n_left + 1)
    core_edges = np.concatenate([left[:-1], mid[:-1], right])

    window = required_window(kernel.gamma.entries, TAIL_TOLERANCE, horizon=t)
    target = min(max(window, CORE_LEFT), FAR_CAP)
    far = []
    x = -CORE_LEFT
    w = (CORE_LEFT - 1.0) / n_left
    while -x < target:
        w *= ratio
        x -= w
        far.append(x)
    edges = np.concatenate([np.array(far[::-1]), core_edges]) if far else core_edges

    return GridSpec(
        edges=edges,
        core_left=CORE_LEFT,
        mesh=h,
        horizon=t,
        tail_tolerance=TAIL_TOLERANCE,
        tail_estimate=tail_fraction(kernel.gamma.entries, -float(edges[0]), horizon=t),
        enforce_tail_bound=enforce_tail_bound,
        ratio=ratio,
    )


def check_tail_bound(grid: GridSpec, kernel: KernelSpec) -> None:
    """Raise when an enforcing grid misses its own tail tolerance."""
    if not grid.enforce_tail_bound:
        return
    if grid.tail_estimate > grid.tail_tolerance:
        need = required_window(kernel.gamma.entries, grid.tail_tolerance, horizon=kernel.horizon)
        raise GridTooSmallError(
            f"tail estimate {grid.tail_estimate:.3e} exceeds tolerance "
            f"{grid.tail_tolerance:.3e}; window must reach {need:.6g} "
            f"(current {grid.far_left:.6g})",
            required_window=need,
        )
