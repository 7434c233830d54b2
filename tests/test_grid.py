"""Tests of the grid's edges, its checks, and the tail estimate of a
window.

The tail oracles are scipy's quadrature of the closed-form order-one
kernel and, for higher orders, the permutation sum that defines the
estimate, written out in 40-digit mpmath; neither shares code with the
permanent-based estimate.
"""
import dataclasses
import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from rosenblatt import (
    DomainError,
    InvalidInputError,
    KernelSpec,
    build_grid,
    normalizing_constant_sq,
    required_window,
    tail_fraction,
)
from rosenblatt.grid import FAR_CAP, GridSpec


def exact_tail_order_one(g: float, window: float) -> float:
    """Variance share of the order-one kernel below -window, by quadrature.

    For y = -x > 0 the kernel is A ((1+y)^p - y^p) / p with p = g + 1.
    Substituting y = window / v puts the decay y^(2g) into the algebraic
    weight v^(-2g-2); expm1/log1p keep the difference of powers accurate.
    """
    p = g + 1.0

    def smooth(v):
        if v == 0.0:
            return (p / window) ** 2
        return (math.expm1(p * math.log1p(v / window)) / v) ** 2

    val, _ = integrate.quad(smooth, 0.0, 1.0, weight="alg", wvar=(-2.0 * g - 2.0, 0.0),
                            epsabs=0.0, epsrel=1e-12)
    return normalizing_constant_sq((g,)) * window ** (2.0 * p + 1.0) * val / p**2


@pytest.mark.parametrize("g", [-0.95, -0.8, -0.6])
def test_order_one_tail_against_quadrature(g):
    # the estimate replaces (s - x)^g by |x|^g, an upper bound that becomes
    # exact only as the window grows
    gaps = []
    for window in (10.0, 100.0, 1000.0):
        exact = exact_tail_order_one(g, window)
        est = tail_fraction((g,), window)
        assert est >= exact
        gaps.append((est - exact) / exact)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def tail_fraction_by_permutations(g, window: float, horizon: float) -> float:
    """The tail estimate from its definition, in 40 digits: for each
    permutation sigma the variance term is the Beta products of both
    orientations of every pair (i, sigma(i)) over (alpha+1)(alpha+2),
    times t^(alpha+2); dropping pair i puts window^a / (-a) in place of
    its cross integral, a = 1 + g_i + g_sigma(i)."""
    with mpmath.workdps(40):
        g = [mpmath.mpf(v) for v in g]
        w, t = mpmath.mpf(window), mpmath.mpf(horizon)

        def variance(pairs):
            up = mpmath.fprod(mpmath.beta(g[i] + 1, -g[i] - g[j] - 1) for i, j in pairs)
            down = mpmath.fprod(mpmath.beta(g[j] + 1, -g[i] - g[j] - 1) for i, j in pairs)
            alpha = mpmath.fsum(1 + g[i] + g[j] for i, j in pairs)
            return (up + down) / ((alpha + 1) * (alpha + 2)) * t ** (alpha + 2)

        total = tail = mpmath.mpf(0)
        for sigma in itertools.permutations(range(len(g))):
            pairs = list(enumerate(sigma))
            total += variance(pairs)
            for k, (i, j) in enumerate(pairs):
                a = 1 + g[i] + g[j]
                tail += w**a / (-a) * variance(pairs[:k] + pairs[k + 1:])
        return float(min(tail / total, 1))


@pytest.mark.parametrize("gamma", [(-0.7, -0.65), (-0.502, -0.7), (-0.7, -0.65, -0.6), (-0.6, -0.65, -0.55, -0.62)])
@pytest.mark.parametrize("horizon", [1.0, 3.7])
def test_tail_fraction_against_permutation_sum(gamma, horizon):
    for window in (1.5 * horizon, 10.0, 1e3, 1e8, 1e40):
        want = tail_fraction_by_permutations(gamma, window, horizon)
        got = tail_fraction(gamma, window, horizon)
        assert abs(got - want) <= 1e-14 * want, (window, got, want)


def test_tail_fraction_rejects_nan():
    with pytest.raises(InvalidInputError):
        tail_fraction((-0.7, -0.65), math.nan)
    with pytest.raises(InvalidInputError):
        tail_fraction((-0.7, -0.65), 10.0, horizon=math.nan)


def test_tail_fraction_is_one_inside_horizon():
    assert tail_fraction((-0.7, -0.65), 1.0) == 1.0
    assert tail_fraction((-0.7, -0.65), 1.5, horizon=2.0) == 1.0


@pytest.mark.parametrize("gamma", [(-0.8,), (-0.7, -0.65), (-0.7, -0.65, -0.6), (-0.55, -0.65)])
@pytest.mark.parametrize("tolerance", [1e-2, 1e-3])
def test_required_window_is_the_smallest(gamma, tolerance):
    w = required_window(gamma, tolerance)
    assert tail_fraction(gamma, w) <= tolerance < tail_fraction(gamma, w * (1.0 - 1e-12))


def test_window_beyond_cap_is_inf():
    # near face 1 even the float64 cap misses the tolerance (the tail
    # fraction at FAR_CAP is about 0.095)
    gamma = (-0.502, -0.7)
    assert math.isinf(required_window(gamma, 1e-3))
    assert tail_fraction(gamma, FAR_CAP) > 1e-3


# Default grids of the benchmark kernels (the sampler's Monte Carlo
# vectors, the sum-to-critical path points and the face-1 trend vector).
# A grid holds only the near zone from the largest mesh edge at or left
# of -t/8, so it depends on the order (through cells) and the horizon
# alone: 512 cells for q <= 2 and 129 for q = 3.
PINNED_WINDOWS = [
    ((-0.8,), 0.12527472527472527, 512),
    ((-0.7, -0.65), 0.12527472527472527, 512),
    ((-0.7, -0.65, -0.6), 0.13157894736842113, 129),
    ((-0.55, -0.65), 0.12527472527472527, 512),
    ((-0.5571428571428572, -0.5428571428571428), 0.12527472527472527, 512),
    ((-0.6714285714285714, -0.6285714285714286), 0.12527472527472527, 512),
    ((-0.7227272727272726, -0.6772727272727272), 0.12527472527472527, 512),
    ((-0.7454545454545454, -0.7045454545454545), 0.12527472527472527, 512),
    ((-0.5444444444444444, -0.5333333333333333, -0.5222222222222221), 0.13157894736842113, 129),
    ((-0.6333333333333332, -0.6, -0.5666666666666667), 0.13157894736842113, 129),
    ((-0.6777777777777776, -0.6333333333333333, -0.5888888888888888), 0.13157894736842113, 129),
    ((-0.6999999999999998, -0.6499999999999999, -0.6), 0.13157894736842113, 129),
]


# sha256 of the same default grids' edges.tobytes() per order, so that
# every edge, not only the far edge and the count, stays bit-identical;
# the near factor rows depend on them bit for bit.
PINNED_EDGE_DIGESTS = {
    1: "e977d66e91f14346c4b003e67291eaf60a8aa7e3c642599fb26dc4f3c9a0eaba",
    2: "e977d66e91f14346c4b003e67291eaf60a8aa7e3c642599fb26dc4f3c9a0eaba",
    3: "f2554ebfc34fbebe5608b59c809ee662aef148c1233678c620c20d43a55c9082",
}


@pytest.mark.parametrize("gamma, far_left, n_cells", PINNED_WINDOWS)
def test_default_grid_windows_pinned(gamma, far_left, n_cells):
    grid = build_grid(KernelSpec(gamma))
    assert grid.far_left == far_left
    assert grid.n_cells == n_cells
    assert hashlib.sha256(grid.edges.tobytes()).hexdigest() == PINNED_EDGE_DIGESTS[len(gamma)]


@pytest.mark.parametrize("horizon, cells", [(1.0, None), (0.5, 228), (2.0, 28), (3.0, 114), (20.0, 28)])
def test_grid_starts_at_the_near_zone(horizon, cells):
    # the first edge is the largest mesh edge at or left of -t/8, so no
    # cell lies left of the far field's edge beyond the one that reaches
    # -t/8
    grid = build_grid(KernelSpec((-0.7, -0.65), horizon=horizon), cells=cells)
    assert grid.edges[0] <= -0.125 * horizon < grid.edges[1]
    assert grid.edges[-1] == horizon and 0.0 in grid.edges
    assert grid.to_dict() == {"horizon": horizon, "n_cells": grid.n_cells, "far_left": -grid.edges[0]}


@pytest.mark.parametrize("horizon", [1e-300, 1e-200, 1e-13, 0.01, 0.5, 3.0, 17.0, 1e100, 1e200])
@pytest.mark.parametrize("cells", [1, 2, 11, None])
def test_grid_is_the_unit_grid_scaled(horizon, cells):
    # the process is self-similar, so the mesh is too: one cell count and
    # one far edge ratio at every horizon, `cells` cells on [0, t], and
    # every edge the unit grid's times t up to rounding
    ker = KernelSpec((-0.7, -0.65))
    unit = build_grid(ker, cells=cells)
    grid = build_grid(KernelSpec((-0.7, -0.65), horizon=horizon), cells=cells)
    assert grid.n_cells == unit.n_cells
    assert np.count_nonzero(grid.edges[:-1] >= 0.0) == (cells or 455)
    assert grid.edges[-1] == horizon and 0.0 in grid.edges
    assert np.max(np.abs(grid.edges / horizon - unit.edges)) <= 4 * np.finfo(float).eps
    assert np.ptp(grid.widths) <= 1e-13 * grid.widths[0]


@pytest.mark.parametrize("cells", [100.5, 16.0, "64", True, 0, -3])
def test_cells_must_be_a_positive_integer(cells):
    # a float would size the mesh without complaint
    with pytest.raises(InvalidInputError, match="cells must be"):
        build_grid(KernelSpec((-0.7, -0.65)), cells=cells)
    with pytest.raises(InvalidInputError, match="cells must be"):
        GridSpec(1.0, cells)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan, "1", None, True])
def test_grid_needs_a_positive_finite_horizon(horizon):
    with pytest.raises(InvalidInputError, match="horizon must be"):
        GridSpec(horizon, 4)


@pytest.mark.parametrize("gamma, horizon", [((-0.7, -0.65, -0.6), 1e-307), ((-0.8,), 5e-324),
                                            ((-0.7, -0.65, -0.6), 5e-324)])
def test_a_subnormal_mesh_width_raises(gamma, horizon):
    # at 1e-307 the q=3 width t/114 is subnormal, and the grid had one
    # cell too many; at 5e-324 the edges were refused with all of them in
    # the message; at 1e-300 the mesh is normal and the unit grid's
    with pytest.raises(DomainError, match=f"subnormal at horizon {horizon}"):
        build_grid(KernelSpec(gamma, horizon=horizon))
    assert build_grid(KernelSpec(gamma, horizon=1e-300)).n_cells == build_grid(KernelSpec(gamma)).n_cells


@pytest.mark.parametrize("tolerance", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_required_window_needs_a_tolerance_inside_zero_one(tolerance):
    with pytest.raises(InvalidInputError, match=f"tolerance must be in \\(0,1\\), got {tolerance}"):
        required_window((-0.7,), tolerance)


def test_grid_is_immutable():
    # no field and no edge may change after the edges are derived
    grid = GridSpec(1.0, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.horizon = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.cells = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.edges = np.linspace(-1.0, 1.0, 7)
    with pytest.raises(ValueError):
        grid.edges[0] = -3.0
    assert grid.edges.dtype == np.float64
    assert not build_grid(KernelSpec((-0.7, -0.65)), cells=28).edges.flags.writeable
    # grids compare and hash by identity
    assert grid != GridSpec(grid.horizon, grid.cells)


@pytest.mark.parametrize("horizon", [1e-300, 1e-13, 0.5, 1.0, 2.0, 17.0, 1e300])
@pytest.mark.parametrize("cells", [1, 2, 3, 18, 455])
def test_grid_is_the_uniform_mesh(horizon, cells):
    # `cells` cells of width t/cells on [0, t], and the same mesh left of
    # 0 down to -ceil(cells/8) t/cells, the largest edge at or left of
    # -t/8; build_grid's grid is GridSpec's, bit for bit
    grid = GridSpec(horizon, cells)
    m = -(-cells // 8)
    assert grid.cells == cells and grid.n_cells == cells + m
    assert np.max(np.abs(grid.edges - horizon * np.arange(-m, cells + 1) / cells)) <= 4 * np.finfo(float).eps * horizon
    assert grid.edges[0] <= -0.125 * horizon < grid.edges[1] and grid.edges[m] == 0.0 and grid.edges[-1] == horizon
    assert grid.edges.tobytes() == build_grid(KernelSpec((-0.7, -0.65), horizon=horizon), cells=cells).edges.tobytes()


@pytest.mark.parametrize("horizon, cells", [(1e-300, 8), (1e-13, 8), (0.7, 72), (1.3, 456)])
def test_the_cut_is_counted_in_cells(horizon, cells):
    # on these meshes the edge at -t/8 rounds to just right of -t/8, so a
    # cut found by comparing edges with -t/8 took one cell more; the cut
    # is ceil(cells/8) cells, with its edge -t/8 up to rounding
    grid = GridSpec(horizon, cells)
    assert grid.edges[0] > -0.125 * horizon
    assert grid.n_cells == cells + cells // 8
    assert abs(grid.edges[0] + 0.125 * horizon) <= 4 * np.finfo(float).eps * horizon
