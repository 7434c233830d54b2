"""Tests of the contraction norms and the graded cycle quadrature.

The references share no code with the quadrature: closed forms of full
matchings, a plain Monte Carlo estimate of the cycle integral built from
the cross-integral closed form, mesh refinement, and default-mesh values
of the earlier quadrature, which took distances to the singular points
as differences of absolute coordinates.  The public enumeration,
condition-(iii) and CLT-bound functions are checked against counts,
closed-form targets and hand arithmetic.
"""
import itertools
import math

import numpy as np
import pytest

import rosenblatt.contractions as rc
from rosenblatt import (
    BoundaryPath, Face, GammaVector, InvalidInputError, QuadratureError, SizeError, normalizing_constant_sq,
)
from rosenblatt.kernel import MAX_ORDER

from helpers import cycle_mc_oracle

Q2 = (-0.7, -0.65)
Q3 = (-0.7, -0.65, -0.6)
Q3_SPREAD = (-0.9, -0.55, -0.53)


def spec(gamma, indices, images):
    return rc.ContractionSpec(len(gamma), len(gamma), indices, images)


def rel_err(x, y):
    return abs(x - y) / abs(y)


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def pairing_weight(gamma, perm):
    return math.exp(sum(log_beta(gamma[i] + 1.0, -gamma[i] - gamma[s] - 1.0) for i, s in enumerate(perm)))


def cross_factor(g1, g2):
    """Closed form of int (s1-x)_+^g1 (s2-x)_+^g2 dx, vectorized."""
    p = g1 + g2 + 1.0
    up, down = math.exp(log_beta(1.0 + g1, -p)), math.exp(log_beta(1.0 + g2, -p))
    return lambda s1, s2: np.where(s2 > s1, up, down) * np.abs(s2 - s1) ** p


PINNED_NORMS = [
    (Q2, (1,), (1,), 0.1223365833137404),
    (Q2, (1,), (2,), 0.11907453290437373),
    (Q3, (1,), (2,), 0.0032857558039831513),
    (Q3, (1, 2), (1, 2), 0.005004829514641906),
]


class TestPinnedValues:
    @pytest.mark.parametrize("gamma, indices, images, want", PINNED_NORMS)
    def test_contraction_norm(self, gamma, indices, images, want):
        assert rel_err(rc.contraction_norm_sq(gamma, spec(gamma, indices, images)), want) <= 1e-12

    def test_face1_trend_point(self):
        path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.65,)), (0.05,))
        got = rc.ncl_condition_ii_trend(path, rc.ContractionSpec(2, 2, (1,), (2,))).values()[0]
        assert rel_err(got, 115.00143509547985) <= 1e-12

    @pytest.mark.parametrize("gamma, a, b, want", [
        (Q2, 0.2, 0.6, 0.21905911237059034),
        ((-0.6, -0.7), -0.5, 1.5, 0.5286249840882691),  # window wider than [0, 1]
    ])
    def test_indicator_norm(self, gamma, a, b, want):
        assert rel_err(rc.condition_i_indicator_norm(gamma, a, b), want) <= 1e-12

    def test_repeated_calls_bit_identical(self):
        pf = rc.phi_factors(Q3, spec(Q3, (1,), (2,)))
        assert rc.phi_cycle_integral(pf) == rc.phi_cycle_integral(pf)


@pytest.mark.parametrize("gamma, sigma", [(Q2, (1, 0)), (Q3, (1, 2, 0))])
def test_full_matching_closed_form(gamma, sigma):
    """<f, f o sigma> = A^2 (P_sigma + P_sigma^-1) / ((a+1)(a+2)) with
    P_sigma = prod_i B(g_i+1, -g_i-g_sigma(i)-1) and a = 2 sum(g) + q."""
    q = len(gamma)
    pf = rc.phi_factors(gamma, spec(gamma, tuple(range(1, q + 1)), tuple(s + 1 for s in sigma)))
    inverse = tuple(sigma.index(j) for j in range(q))
    a = 2.0 * sum(gamma) + q
    amp_sq = normalizing_constant_sq(gamma)
    pair_sum = pairing_weight(gamma, sigma) + pairing_weight(gamma, inverse)
    inner = amp_sq * pair_sum / ((a + 1.0) * (a + 2.0))
    assert rel_err(amp_sq * amp_sq * rc.phi_cycle_integral(pf), inner * inner) <= 1e-8


@pytest.mark.parametrize("gamma, indices, images", [
    (Q2, (1,), (1,)),
    (Q2, (1,), (2,)),
    (Q3_SPREAD, (1,), (3,)),
])
def test_exploit_symmetry_agrees(gamma, indices, images):
    pf = rc.phi_factors(gamma, spec(gamma, indices, images))
    both = rc.phi_cycle_integral(pf, exploit_symmetry=False)
    assert rel_err(both, rc.phi_cycle_integral(pf)) <= 1e-12


@pytest.mark.parametrize("gamma, indices, images", [(Q2, (1,), (2,)), (Q3, (1,), (2,))])
def test_refinement_converges(gamma, indices, images):
    s = spec(gamma, indices, images)
    scales = (1.0, 1.5, 2.0, 3.0)
    values = [rc.contraction_norm_sq(gamma, s, mesh_scale=m) for m in scales]
    assert all(math.isfinite(v) for v in values)
    assert all(rel_err(v, values[0]) <= 1e-5 for v in values)
    # the distance to the finest value shrinks with every refinement
    gaps = [abs(v - values[-1]) for v in values[:-1]]
    assert gaps == sorted(gaps, reverse=True)


def test_monte_carlo_oracle():
    # slot 1 of one kernel matched with slot 2 of the other: the unmatched
    # slots are 2 in the first factor and 1 in the second
    g = Q2
    phi1 = cross_factor(g[0], g[1])
    phi2, phi3 = cross_factor(g[1], g[1]), cross_factor(g[0], g[0])
    pairs = [(0, 1, phi1), (2, 3, phi1), (0, 2, phi2), (1, 3, phi3)]
    estimate, se = cycle_mc_oracle(g, pairs, 2_000_000, seed=5)
    got = rc.phi_cycle_integral(rc.phi_factors(g, spec(g, (1,), (2,))))
    assert abs(got - estimate) <= 4.0 * se


def test_nonfinite_cycle_raises(monkeypatch):
    pf = rc.phi_factors(Q2, spec(Q2, (1,), (2,)))
    monkeypatch.setattr(rc, "_segment", lambda *args, **kwargs: math.nan)
    with pytest.raises(QuadratureError):
        rc.phi_cycle_integral(pf)


def test_nonfinite_indicator_raises(monkeypatch):
    def nan_weights(*args):
        x, xc, w = rule(*args)
        return x, xc, np.full_like(w, math.nan)

    rule = rc.graded_rule
    monkeypatch.setattr(rc, "graded_rule", nan_weights)
    with pytest.raises(QuadratureError):
        rc.condition_i_indicator_norm(Q2, 0.2, 0.6)


def test_enumerate_contractions():
    for q, m in itertools.product((1, 2, 3), repeat=2):
        for r in range(min(q, m) + 1):
            specs = rc.enumerate_contractions(q, m, r)
            want = math.comb(q, r) * math.comb(m, r) * math.factorial(r)
            assert len(specs) == want == len(set(specs))
            assert all(s.q == q and s.m == m and s.r == r for s in specs)
    assert [len(rc.enumerate_contractions(3, 3, r)) for r in range(4)] == [1, 9, 18, 6]
    (empty,) = rc.enumerate_contractions(2, 3, 0)
    assert empty.indices == () and empty.images == ()
    with pytest.raises(SizeError):
        rc.enumerate_contractions(MAX_ORDER + 1, 1, 0)


def test_condition_iii_limit_approaches_target():
    # slot 1 adjoined to (2)->(2) makes a full matching at every point, and
    # the reduced target is the unit-normalized order-1 norm: closed forms only
    path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.65,)), (0.1, 0.01, 0.001))
    res = rc.ncl_condition_iii_limit(path, spec((-0.7, -0.65), (2,), (2,)))
    assert res.target == pytest.approx(1.0, abs=1e-12)
    gaps = res.table.gaps()
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert res.final_gap == gaps[-1] < 0.1
    with pytest.raises(InvalidInputError):
        rc.ncl_condition_iii_limit(path, spec((-0.7, -0.65), (1,), (2,)))


def test_clt_norm_bound():
    s = spec(Q2, (1,), (2,))
    value, exponent = rc.clt_norm_bound(Q2, s)
    assert value == rc.contraction_norm_sq(Q2, s)
    # 2 a1 + a2 + a3 = 2 (g1 + g2 + 1) + (2 g2 + 1) + (2 g1 + 1)
    assert exponent == pytest.approx(-1.4, abs=1e-12)
    for bad in (spec(Q2, (), ()), spec(Q2, (1, 2), (2, 1))):
        with pytest.raises(InvalidInputError):
            rc.clt_norm_bound(Q2, bad)
