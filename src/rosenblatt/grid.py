"""Discretization grids for chaos sampling.

A grid covers (x_left, horizon] with a uniform core around the origin
plus a geometric far-field extension to the left.  The far field matters:
each kernel factor decays like |x|^g with g in (-1,-1/2), so the variance
mass below -X vanishes only like X^(1+g_i+g_j), painfully slowly near the
boundary faces.  The closed-form tail estimator quantifies that and sizes
the window; where the required window exceeds what float64 can express
the grid caps out there.  The tail estimate is the sampled kernel's.

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
from .errors import GridTooSmallError, InvalidInputError
from .kernel import KernelSpec, _horizon, normalizing_constant_sq
from .special import beta_matrix, permanent

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


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Cell edges and their sizing.  A grid keeps no tail estimate: that is
    the sampled kernel's, so one grid may serve any kernel of its horizon.

    A grid is immutable: its fields cannot be reassigned, and it holds a
    read-only float64 copy of the edges it is given.  The sampler keeps
    each grid's far-field latent root for as long as the grid lives, keyed
    by the grid's identity (grids compare and hash by identity), so a grid
    that changed after its first use would be sampled with a stale root.
    """

    edges: np.ndarray
    core_left: float
    mesh: float
    horizon: float
    enforce_tail_bound: bool = False
    ratio: float = 1.0

    def __post_init__(self):
        edges = np.array(self.edges, dtype=np.float64)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

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
            "enforce_tail_bound": self.enforce_tail_bound,
        }


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
    TAIL_TOLERANCE = 1e-3 or the window hits FAR_CAP = 1e250.  A kernel
    sampled here whose own tail misses it (this one capped, or another)
    raises only when `enforce_tail_bound` is set.  The sampler's
    s-rule has one node per cell inside [0, t], so n_core also sets it.
    """
    q = kernel.q
    if n_core is None:
        n_core = 1024 if q >= 3 else 4096
    if _integer(n_core, "n_core") < 8 * q:
        raise InvalidInputError(f"n_core must be at least {8 * q} for order {q}, got {n_core}")
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
        enforce_tail_bound=enforce_tail_bound,
        ratio=ratio,
    )


def check_tail_bound(grid: GridSpec, kernel: KernelSpec) -> None:
    """Raise when an enforcing grid's window leaves the sampled kernel's
    own tail estimate above TAIL_TOLERANCE."""
    if not grid.enforce_tail_bound:
        return
    tail = tail_fraction(kernel.gamma.entries, grid.far_left, horizon=grid.horizon)
    if tail > TAIL_TOLERANCE:
        need = required_window(kernel.gamma.entries, TAIL_TOLERANCE, horizon=grid.horizon)
        advice = f"the window must reach {need:.6g}" if need < math.inf else "no window up to FAR_CAP meets it"
        raise GridTooSmallError(
            f"tail fraction {tail:.3e} at window {grid.far_left:.6g} exceeds the tolerance "
            f"{TAIL_TOLERANCE:.3e}, and {advice}: the slowest tail exponent 1 + 2 max(gamma) is "
            f"{1.0 + 2.0 * max(kernel.gamma.entries):.3g}",
            required_window=need,
        )
