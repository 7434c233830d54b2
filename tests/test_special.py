import math

import mpmath
import numpy as np
import pytest

from rosenblatt import (
    DivergentIntegralError,
    DomainError,
    beta,
    log_beta,
)
from rosenblatt.special import beta_matrix, permanent

from helpers import beta_quadrature, cross_integral, cross_integral_quadrature


def rel_err(x, y):
    return abs(x - y) / max(abs(x), abs(y))


class TestBeta:
    def test_uniform_normalization(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_half_is_pi(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_against_quadrature_oracle(self):
        # frozen spec pair plus a randomized sweep
        assert rel_err(beta(0.4, 0.2), beta_quadrature(0.4, 0.2)) < 1e-9
        rng = np.random.default_rng(20260822)
        for _ in range(25):
            a = float(math.exp(rng.uniform(math.log(0.05), math.log(10.0))))
            b = float(math.exp(rng.uniform(math.log(0.05), math.log(10.0))))
            assert rel_err(beta(a, b), beta_quadrature(a, b)) < 1e-9

    def test_accuracy_small_arguments(self):
        # contract: rel err <= 1e-12 on (1e-6, 10], checked against mpmath
        rng = np.random.default_rng(7)
        mpmath.mp.dps = 40
        for _ in range(40):
            a = float(math.exp(rng.uniform(math.log(1e-6), math.log(10.0))))
            b = float(math.exp(rng.uniform(math.log(1e-6), math.log(10.0))))
            ref = float(mpmath.beta(a, b))
            assert rel_err(beta(a, b), ref) < 1e-12

    def test_log_beta_near_face(self):
        # the second argument -g_i-g_j-1 reaches 1e-9 near the boundary
        # faces; log B is checked absolutely near 0 and relatively beyond
        rng = np.random.default_rng(17)
        with mpmath.workdps(40):
            for _ in range(200):
                a = float(10.0 ** rng.uniform(-3.0, 0.5))
                b = float(10.0 ** rng.uniform(-9.0, 0.3))
                ref = float(mpmath.log(mpmath.beta(a, b)))
                assert abs(log_beta(a, b) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b = rng.uniform(1e-4, 10.0, size=2)
            assert rel_err(beta(a, b), beta(b, a)) < 1e-14

    def test_recurrence(self):
        # B(a+1,b) = B(a,b) * a/(a+b)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            a, b = rng.uniform(1e-3, 8.0, size=2)
            assert rel_err(beta(a + 1.0, b), beta(a, b) * a / (a + b)) < 1e-12

    def test_rejects_nonpositive(self):
        for a, b in [(0.0, 1.0), (1.0, 0.0), (-0.5, 1.0), (1.0, -2.0)]:
            with pytest.raises(DomainError):
                beta(a, b)
            with pytest.raises(DomainError):
                log_beta(a, b)


class TestBetaMatrix:
    @pytest.mark.parametrize("g", [(-0.7,), (-0.7, -0.65), (-0.7, -0.65, -0.6), (-0.502, -0.55, -0.9, -0.6)])
    def test_entries_against_mpmath(self, g):
        u = beta_matrix(g)
        assert u.shape == (len(g), len(g))
        with mpmath.workdps(30):
            for i, gi in enumerate(g):
                for j, gj in enumerate(g):
                    want = float(mpmath.beta(mpmath.mpf(gi) + 1, -mpmath.mpf(gi) - mpmath.mpf(gj) - 1))
                    assert rel_err(u[i, j], want) < 1e-13


class TestPermanent:
    def test_empty_is_one(self):
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_three_by_three_expanded(self):
        m = [[1.5, -2.0, 0.25], [3.0, 0.5, -1.0], [2.0, 4.0, 0.75]]
        (a, b, c), (d, e, f), (g, h, i) = m
        want = a * e * i + a * f * h + b * d * i + b * f * g + c * d * h + c * e * g
        assert permanent(m) == pytest.approx(want, rel=1e-15)
        assert permanent(np.array(m)) == pytest.approx(want, rel=1e-15)

    def test_array_entries_multiply_entrywise(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3, 4, 5))
        got = permanent(m)
        assert got.shape == (4, 5)
        for k in range(4):
            for n in range(5):
                assert got[k, n] == permanent(m[:, :, k, n])


class TestCrossIntegral:
    def test_known_value(self):
        # s1=0, s2=1, both exponents -3/4: (1)^(-1/2) B(1/4, 1/2)
        got = cross_integral(0.0, 1.0, -0.75, -0.75)
        assert got == pytest.approx(beta(0.25, 0.5), rel=1e-14)

    def test_relabeling_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s1, s2 = rng.uniform(0.0, 2.0, size=2)
            if s1 == s2:
                continue
            g1, g2 = rng.uniform(-0.99, -0.51, size=2)
            assert cross_integral(s1, s2, g1, g2) == pytest.approx(
                cross_integral(s2, s1, g2, g1), rel=1e-14
            )

    def test_single_active_branch(self):
        # for s2 > s1 only the (s2-s1) branch contributes, with the first
        # exponent in the first Beta slot
        s1, s2, g1, g2 = 0.3, 1.1, -0.6, -0.8
        expect = (s2 - s1) ** (1.0 + g1 + g2) * beta(1.0 + g1, -1.0 - g1 - g2)
        assert cross_integral(s1, s2, g1, g2) == pytest.approx(expect, rel=1e-14)
        assert cross_integral(s1, s2, g1, g2) > 0.0

    def test_against_quadrature_oracle(self):
        got = cross_integral(0.3, 0.9, -0.6, -0.8)
        ref = cross_integral_quadrature(0.3, 0.9, -0.6, -0.8)
        assert rel_err(got, ref) < 1e-8

    def test_random_tuples_against_oracle(self):
        rng = np.random.default_rng(20260822)
        checked = 0
        while checked < 100:
            s1, s2 = rng.uniform(0.01, 3.0, size=2)
            if abs(s1 - s2) < 1e-3:
                continue
            g1, g2 = rng.uniform(-0.95, -0.55, size=2)
            got = cross_integral(s1, s2, g1, g2)
            ref = cross_integral_quadrature(s1, s2, g1, g2)
            assert rel_err(got, ref) < 1e-6
            checked += 1

    def test_equal_arguments_diverge(self):
        with pytest.raises(DivergentIntegralError) as exc:
            cross_integral(0.7, 0.7, -0.6, -0.7)
        assert "g1+g2" in exc.value.exponents

    def test_exponent_domain(self):
        for g1, g2 in [(-0.4, -0.7), (-1.0, -0.7), (-0.6, -0.5), (-0.6, -1.2)]:
            with pytest.raises(DomainError):
                cross_integral(0.0, 1.0, g1, g2)


class TestBetaSmallAlphaProbe:
    def test_beta_one_exact(self):
        # B(alpha, 1) = 1/alpha exactly, so the deviation at beta=1 is 0
        assert abs(0.1 * beta(0.1, 1.0) - 1.0) < 1e-13
