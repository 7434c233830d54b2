"""Tests of the grid's tail estimate and window sizing.

The tail oracle is scipy's quadrature of the closed-form order-one
kernel; it shares no code with the permutation-sum estimate.
"""
import hashlib
import math

import pytest
from scipy import integrate

from rosenblatt import (
    InvalidInputError,
    KernelSpec,
    build_grid,
    normalizing_constant_sq,
    required_window,
    tail_fraction,
)
from rosenblatt.grid import FAR_CAP


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
    # near face 1 even the float64 cap misses the tolerance (the tail
    # fraction at FAR_CAP is about 0.095), so the grid stops there
    gamma = (-0.502, -0.7)
    assert math.isinf(required_window(gamma, 1e-3))
    grid = build_grid(KernelSpec(gamma), n_core=128)
    assert grid.far_left >= FAR_CAP
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


# sha256 of the same default grids' edges.tobytes(), so that every edge,
# not only the window and the count, stays bit-identical.
PINNED_EDGE_DIGESTS = {
    (-0.8,): "1cbd95721c1d7093f51e720b52ee76273c246596a0c4708406c73e023f8f59cc",
    (-0.7, -0.65): "f3db66264ea932dd0ca99825ff1b22216c3c6b56bcb61a412e1ededfef453035",
    (-0.7, -0.65, -0.6): "3fb52eb7c4e7dffa05b49ec7c130f8945b18f600b082e2600f887a842f31cc2f",
    (-0.55, -0.65): "0aed53c730a10c150e73ef40bddc3374deb5cd772e7efd8914edce7ae7e08d07",
    (-0.5571428571428572, -0.5428571428571428): "9dc6c9e6e58438b16056db1b754379f3d55235eb4f3c524ce90347727ab13b44",
    (-0.6714285714285714, -0.6285714285714286): "4baa3dee857ea62b92fac52500ccb561ad03bd6196fb8bf68c63408751a1f863",
    (-0.7227272727272726, -0.6772727272727272): "9732a8f792314ea7d8479e468ff75f5d3bba7887cc7bf6b101adccbacbec1c02",
    (-0.7454545454545454, -0.7045454545454545): "2cbc3009569ee0ed1aa1fe7f46961c8a9c20c8a31b0d33488208459bca1dad98",
    (-0.5444444444444444, -0.5333333333333333, -0.5222222222222221): "b84d0917336a4004561cd52ba303297ce38af46e919abb99032a229acb9a10b0",
    (-0.6333333333333332, -0.6, -0.5666666666666667): "a5f09c4cc8149ebd6ea88351f1267ab01dbe69446ed1615efe2ec01e5e0e0338",
    (-0.6777777777777776, -0.6333333333333333, -0.5888888888888888): "c855c7832834a1f6723711c10b2c713978e60f21c7dba2a2199debf35a6bf043",
    (-0.6999999999999998, -0.6499999999999999, -0.6): "3fb52eb7c4e7dffa05b49ec7c130f8945b18f600b082e2600f887a842f31cc2f",
}


@pytest.mark.parametrize("gamma, far_left, n_cells", PINNED_WINDOWS)
def test_default_grid_windows_pinned(gamma, far_left, n_cells):
    grid = build_grid(KernelSpec(gamma))
    assert grid.far_left == far_left
    assert grid.n_cells == n_cells
    assert hashlib.sha256(grid.edges.tobytes()).hexdigest() == PINNED_EDGE_DIGESTS[gamma]


@pytest.mark.parametrize("n_core", [100.5, 16.0, "64", 8])
def test_n_core_must_be_a_large_enough_integer(n_core):
    # a float would size the core step without complaint; 8 < 8q for q=2
    with pytest.raises(InvalidInputError):
        build_grid(KernelSpec((-0.7, -0.65)), n_core=n_core)
