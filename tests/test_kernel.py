import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rosenblatt
from rosenblatt import DomainError, GammaVector, InvalidInputError, SizeError, beta
from rosenblatt.kernel import (
    KernelSpec,
    constant_face_ratio,
    eval_kernel,
    normalizing_constant,
    normalizing_constant_sq,
)

from helpers import kernel_quadrature


def rel_err(x, y):
    return abs(x - y) / max(abs(x), abs(y))


class TestNormalizingConstant:
    def test_order_one_closed_form(self):
        # A^2 = (2g+2)(2g+3) / (2 B(g+1, -2g-1)) at g = -3/4
        got = normalizing_constant_sq(GammaVector((-0.75,)))
        assert got == pytest.approx(0.75 / (2.0 * beta(0.25, 0.5)), rel=1e-13)

    def test_order_two_symmetric(self):
        got = normalizing_constant_sq(GammaVector((-0.6, -0.6)))
        assert got == pytest.approx(0.6 * 1.6 / (4.0 * beta(0.4, 0.2) ** 2), rel=1e-13)

    def test_unit_variance_identity(self):
        # q! times the symmetrized norm reduces to a permutation sum of
        # closed-form double integrals; with A^2 in place it must be 1
        for entries in [(-0.6, -0.7), (-0.55, -0.8), (-0.65, -0.7, -0.6)]:
            gamma = GammaVector(entries)
            q = gamma.q
            g = gamma.entries
            a_sq = normalizing_constant_sq(gamma)
            total = 0.0
            for sigma in itertools.permutations(range(q)):
                alpha = sum(1.0 + g[j] + g[sigma[j]] for j in range(q))
                c_plus = math.prod(beta(g[j] + 1.0, -g[j] - g[sigma[j]] - 1.0) for j in range(q))
                c_minus = math.prod(beta(g[sigma[j]] + 1.0, -g[j] - g[sigma[j]] - 1.0) for j in range(q))
                total += a_sq * (c_plus + c_minus) / ((alpha + 1.0) * (alpha + 2.0))
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_rejects_outside_region(self):
        with pytest.raises(DomainError):
            normalizing_constant(GammaVector((-0.4, -0.7)))
        with pytest.raises(DomainError):
            normalizing_constant(GammaVector((-0.9, -0.9)))

    def test_order_cap(self):
        with pytest.raises(SizeError):
            normalizing_constant(GammaVector((-0.58,) * 7))

    def test_positive_and_finite_inside(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = int(rng.integers(1, 4))
            while True:
                g = tuple(rng.uniform(-0.95, -0.55, size=q))
                if sum(g) > -(q + 1) / 2.0 + 0.01:
                    break
            a = normalizing_constant(GammaVector(g))
            assert a > 0.0 and math.isfinite(a)


class TestEvalKernel:
    def test_zero_beyond_horizon(self):
        spec = KernelSpec(GammaVector((-0.6, -0.7)))
        assert eval_kernel(spec, (1.0, 1.5)) == 0.0
        assert eval_kernel(spec, (2.0, 1.0)) == 0.0

    def test_order_one_antiderivative(self):
        g = -0.7
        spec = KernelSpec(GammaVector((g,)))
        for x in [-2.0, -0.3, 0.2, 0.9]:
            expect = (
                spec.constant
                * (max(1.0 - x, 0.0) ** (g + 1.0) - max(-x, 0.0) ** (g + 1.0))
                / (g + 1.0)
            )
            oracle = spec.constant * kernel_quadrature((g,), 1.0, (x,))
            assert oracle == pytest.approx(expect, rel=1e-9)
            assert eval_kernel(spec, (x,)) == pytest.approx(expect, rel=1e-6)

    def test_order_two_against_oracle(self):
        g = (-0.6, -0.7)
        for horizon, x in [(1.0, (-1.0, 0.2)), (3.7, (-3.7, 0.74))]:
            spec = KernelSpec(GammaVector(g), horizon)
            ref = spec.constant * kernel_quadrature(g, horizon, x)
            assert rel_err(eval_kernel(spec, x), ref) < 1e-5

    def test_randomized_points_against_oracle(self):
        rng = np.random.default_rng(37)
        cases = 0
        while cases < 30:
            q = int(rng.integers(1, 4))
            while True:
                g = tuple(rng.uniform(-0.9, -0.55, size=q))
                if sum(g) > -(q + 1) / 2.0 + 0.02:
                    break
            spec = KernelSpec(GammaVector(g))
            x = tuple(rng.uniform(-3.0, 0.95, size=q))
            ref = spec.constant * kernel_quadrature(g, 1.0, x)
            if ref == 0.0:
                continue
            assert rel_err(eval_kernel(spec, x), ref) < 1e-8
            cases += 1

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_near_tie_points_against_oracle(self):
        # a free coordinate 1e-6 to 1e-2 below the tied one at s0 puts a
        # branch point just outside (s0, t), which the rule must grade into;
        # the oracle's roundoff warnings stay near 1e-10, far inside the bound
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = int(rng.integers(2, 4))
            while True:
                g = tuple(rng.uniform(-0.9, -0.55, size=q))
                if sum(g) > -(q + 1) / 2.0 + 0.02:
                    break
            spec = KernelSpec(GammaVector(g))
            s0 = rng.uniform(0.0, 0.9)
            gap = 10.0 ** rng.uniform(-6.0, -2.0)
            x = np.concatenate(([s0, s0 - gap], rng.uniform(-2.0, s0 - gap, size=q - 2)))
            x = rng.permutation(x)
            ref = spec.constant * kernel_quadrature(g, 1.0, x, tol=1e-12)
            assert rel_err(eval_kernel(spec, x), ref) < 1e-8

    def test_symmetrized_invariance(self):
        rng = np.random.default_rng(41)
        spec = KernelSpec(GammaVector((-0.6, -0.7, -0.65)))
        for _ in range(20):
            x = rng.uniform(-2.0, 0.9, size=3)
            perm = rng.permutation(3)
            a = eval_kernel(spec, x, mode="symmetrized")
            b = eval_kernel(spec, x[perm], mode="symmetrized")
            assert rel_err(a, b) < 1e-12

    def test_tied_coordinates_diverge(self):
        spec = KernelSpec(GammaVector((-0.6, -0.7)))
        assert math.isinf(eval_kernel(spec, (0.2, 0.2)))

    def test_dimension_mismatch(self):
        spec = KernelSpec(GammaVector((-0.6, -0.7)))
        with pytest.raises(InvalidInputError):
            eval_kernel(spec, (0.1, 0.2, 0.3))

    def test_bad_mode_and_rule(self):
        spec = KernelSpec(GammaVector((-0.7,)))
        with pytest.raises(InvalidInputError):
            eval_kernel(spec, (0.1,), mode="tilted")


class TestConstantFaceRatio:
    def test_converges_to_tail_constant(self):
        rows = constant_face_ratio((-0.7,), (1e-2, 1e-3, 1e-4))
        gaps = [r["rel_gap"] for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.01
        assert rows[-1]["target"] == pytest.approx(
            normalizing_constant_sq(GammaVector((-0.7,))), rel=1e-14
        )

    def test_order_three_tail(self):
        rows = constant_face_ratio((-0.7, -0.6), (1e-2, 1e-3, 1e-4))
        assert rows[-1]["rel_gap"] < 0.01

    def test_empty_tail_rejected(self):
        with pytest.raises(SizeError):
            constant_face_ratio((), (1e-2,))

    def test_constant_vanishes_along_face(self):
        # vanishing is asymptotic; start where the decay has set in
        eps = (0.1, 0.05, 0.01, 0.002)
        values = [
            normalizing_constant_sq(GammaVector((-0.5 - e, -0.7))) for e in eps
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        rows = constant_face_ratio((-0.7,), eps)
        assert all(0.0 < r["ratio"] < 10.0 for r in rows)


def test_import_loads_no_scipy():
    # scipy is a test oracle only; the package's runtime is numpy alone
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rosenblatt.__file__)))
    code = "import sys, rosenblatt; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
