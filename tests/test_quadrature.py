"""Tests of the shared graded rule against Beta-function moments."""
import math

import numpy as np
import pytest

from rosenblatt.quadrature import gauss_jacobi, gauss_legendre, graded_rule


def beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# (n_lo, n_hi, ratio, order, tolerance).  The package's meshes (the
# cycle's gap axis, its outer axis and the kernel's one-sided s-axis) use
# 8 nodes on panels shrinking by 0.3: a panel [0.3c, c] sees the end
# power's branch point at Bernstein-ellipse parameter 3.42, so each panel
# is good to about 3.42^-16 = 3e-9.  With 12 nodes on panels halving
# into each end (parameter 5.83) the explicit panels reach rounding level,
# which checks the corner Jacobi rules and the folded weights.
MESHES = [
    (9, 9, 0.3, 8, 5e-9),
    (8, 6, 0.3, 8, 5e-9),
    (9, 1, 0.3, 8, 5e-9),
    (9, 9, 0.5, 12, 1e-13),
    (9, 1, 0.5, 12, 1e-13),
]


@pytest.mark.parametrize("n_lo, n_hi, ratio, order, tol", MESHES)
@pytest.mark.parametrize("alpha_lo, alpha_hi", [
    (-0.6, -0.3), (-0.95, -0.05), (-0.4, None), (None, -0.8), (None, None),
])
def test_moments_match_beta(n_lo, n_hi, ratio, order, tol, alpha_lo, alpha_hi):
    # int_0^1 x^(a+k) (1-x)^b dx = B(a+k+1, b+1); None is a zero power
    x, xc, w = graded_rule(n_lo, n_hi, ratio, order, alpha_lo, alpha_hi)
    assert np.max(np.abs(xc - (1.0 - x))) <= 1e-16
    a, b = alpha_lo or 0.0, alpha_hi or 0.0
    for k in range(6):
        want = beta(a + k + 1.0, b + 1.0)
        assert abs(float(np.sum(w * x**k)) - want) <= tol * want


def test_cached_arrays_are_read_only():
    for arrays in (gauss_legendre(8), gauss_jacobi(8, -0.3), graded_rule(9, 1, 0.3, 8, -0.3)):
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0
