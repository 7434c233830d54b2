"""Tests of the grid's tail estimate and window sizing.

The tail oracle is scipy's quadrature of the closed-form order-one
kernel; it shares no code with the permutation-sum estimate.
"""
import math

import pytest
from scipy import integrate

from rosenblatt import KernelSpec, build_grid, normalizing_constant_sq, required_window, tail_fraction


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


def test_tail_fraction_is_one_inside_horizon():
    assert tail_fraction((-0.7, -0.65), 1.0) == 1.0
    assert tail_fraction((-0.7, -0.65), 1.5, horizon=2.0) == 1.0


@pytest.mark.parametrize("gamma", [(-0.8,), (-0.7, -0.65), (-0.7, -0.65, -0.6), (-0.55, -0.65)])
@pytest.mark.parametrize("tolerance", [1e-2, 1e-3])
def test_required_window_is_the_smallest(gamma, tolerance):
    w = required_window(gamma, tolerance)
    assert tail_fraction(gamma, w) <= tolerance < tail_fraction(gamma, w * (1.0 - 1e-12))


def test_window_beyond_cap_is_inf():
    gamma = (-0.502, -0.7)
    assert math.isinf(required_window(gamma, 1e-3, cap=100.0))
    grid = build_grid(KernelSpec(gamma), n_core=128, s_panels=8, far_cap=100.0)
    assert grid.far_left >= 100.0
    assert grid.tail_estimate > grid.tail_tolerance


# Default-grid windows of the benchmark kernels (the sampler's Monte
# Carlo vectors, the sum-to-critical path points and the face-1 trend
# vector) before the bisection stopped at convergence.
PINNED_WINDOWS = [
    ((-0.8,), 1484.9203774365926, 4277),
    ((-0.7, -0.65), 63145425.57417757, 4460),
    ((-0.7, -0.65, -0.6), 21518054767.5245, 1256),
    ((-0.55, -0.65), 1.1114007760622524e+26, 5181),
    ((-0.5571428571428572, -0.5428571428571428), 9.002682063703004e+32, 5454),
    ((-0.6714285714285714, -0.6285714285714286), 4442935463.843083, 4533),
    ((-0.7227272727272726, -0.6772727272727272), 1516242.770591068, 4396),
    ((-0.7454545454545454, -0.7045454545454545), 45971.61520754408, 4336),
    ((-0.5444444444444444, -0.5333333333333333, -0.5222222222222221), 1.1040936325747215e+60, 2266),
    ((-0.6333333333333332, -0.6, -0.5666666666666667), 3.9942092856228367e+18, 1424),
    ((-0.6777777777777776, -0.6333333333333333, -0.5888888888888888), 6965016739985.075, 1307),
    ((-0.6999999999999998, -0.6499999999999999, -0.6), 21518054767.5245, 1256),
]


@pytest.mark.parametrize("gamma, far_left, n_cells", PINNED_WINDOWS)
def test_default_grid_windows_pinned(gamma, far_left, n_cells):
    grid = build_grid(KernelSpec(gamma))
    assert grid.far_left == far_left
    assert grid.n_cells == n_cells
