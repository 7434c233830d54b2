"""Tests of the Gauss rules against 40-digit references and of the
shared graded rule against Beta-function moments."""
import math

import mpmath
import numpy as np
import pytest

from rosenblatt.quadrature import gauss_jacobi, graded_rule


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


def jacobi_rule_mp(p, b, guesses):
    """Roots of P_p^(0,b) polished from `guesses`, with Christoffel weights.

    The weight for (1+x)^b on [-1, 1] is 2^(b+1) / ((1-x^2) P_p'(x)^2),
    with P_p' = (p+b+1)/2 P_(p-1)^(1,b+1); no eigenproblem is involved.
    """
    with mpmath.workdps(40):
        b = mpmath.mpf(float(b))
        nodes, weights = [], []
        for guess in guesses:
            x = mpmath.findroot(lambda u: mpmath.jacobi(p, 0, b, u), mpmath.mpf(float(guess)))
            d = (p + b + 1) / 2 * mpmath.jacobi(p - 1, 1, b + 1, x)
            nodes.append(x)
            weights.append(2 ** (b + 1) / ((1 - x * x) * d * d))
        return nodes, weights


# 21 exponents across (-0.999, 3), 0 (the Legendre panels) and -0.9,
# where p = 12 gives the largest node error seen over 203 exponents
# (1.04e-15).  The eigenvalue bound of the p x p Jacobi matrix is about
# p * eps * |J| = 2.7e-15 at p = 12, so 2e-15 sits just above what is
# seen without leaving the rounding level.
EXPONENTS = sorted(set(np.linspace(-0.999, 2.999, 21).tolist()) | {0.0, -0.9})


@pytest.mark.parametrize("p", [8, 12])
def test_gauss_jacobi_against_mpmath(p):
    for b in EXPONENTS:
        x, w = gauss_jacobi(p, b)
        xs, ws = jacobi_rule_mp(p, b, x)
        assert np.all(np.diff(x) > 0.0)
        assert max(abs(float(u - v)) for u, v in zip(x, xs)) <= 2e-15
        w_err = max(abs(float((u - v) / v)) for u, v in zip(w, ws))
        assert w_err <= (1e-14 if b == 0.0 else 1e-12)


def test_cached_arrays_are_read_only():
    for arrays in (gauss_jacobi(8, 0.0), gauss_jacobi(8, -0.3), graded_rule(9, 1, 0.3, 8, -0.3)):
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0
