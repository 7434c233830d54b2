import itertools
import math
from collections import Counter

import numpy as np
import pytest

from rosenblatt import InvalidInputError, SizeError
from wick_oracle import (
    WickExpression,
    _hermite_coeffs,
    contract_tensors,
    discrete_isometry_check,
    discrete_product_formula_check,
    hermite_expression,
    symmetrize_tensor,
    wick_moment,
)


def expr_from(terms, n=10):
    e = WickExpression(n)
    for key, c in terms.items():
        e.add_term(key, c)
    return e


def plain_expression(tensor):
    # sum of tensor[j] w_{j_1}...w_{j_q} over all tuples, no Hermite factors
    tensor = np.asarray(tensor, dtype=float)
    e = WickExpression(tensor.shape[0] if tensor.ndim else 0)
    for j in itertools.product(*map(range, tensor.shape)):
        e.add_term(tuple(sorted(Counter(j).items())), float(tensor[j]))
    return e


class TestWickMoment:
    def test_distinct_product_vanishes(self):
        e = expr_from({((0, 1), (1, 1), (2, 1), (3, 1)): 1.0})
        assert wick_moment(e, 0.3) == 0.0

    def test_two_squares(self):
        e = expr_from({((0, 2), (1, 2)): 1.0})
        h = 0.7
        assert wick_moment(e, h) == pytest.approx(h * h, rel=1e-15)

    def test_fourth_moment(self):
        e = expr_from({((0, 4),): 1.0})
        h = 0.41
        assert wick_moment(e, h) == pytest.approx(3.0 * h * h, rel=1e-15)

    def test_degree_cap(self):
        e = expr_from({((0, 10),): 1.0})
        with pytest.raises(SizeError):
            wick_moment(e, 0.3)
        e4 = expr_from({((0, 4), (1, 2)): 1.0})
        with pytest.raises(SizeError):
            (e4 * e4) * e4


class TestHermite:
    def test_low_order_coefficients(self):
        h = 0.37
        assert _hermite_coeffs(0, h) == {0: 1.0}
        assert _hermite_coeffs(1, h) == {1: 1.0}
        assert _hermite_coeffs(2, h) == {2: 1.0, 0: -h}
        assert _hermite_coeffs(3, h) == {3: 1.0, 1: -3.0 * h}
        assert _hermite_coeffs(4, h) == {4: 1.0, 2: -6.0 * h, 0: 3.0 * h * h}

    def test_orthogonality(self):
        # E[H_a(w) H_b(w)] = delta_ab a! h^a
        h = 0.23
        for a in range(5):
            for b in range(5):
                ea = expr_from({(((0, p),) if p else ()): c for p, c in _hermite_coeffs(a, h).items()})
                eb = expr_from({(((0, p),) if p else ()): c for p, c in _hermite_coeffs(b, h).items()})
                got = wick_moment(ea * eb, h)
                want = math.factorial(a) * h**a if a == b else 0.0
                assert got == pytest.approx(want, abs=1e-12)

    def test_hermite_expression_matches_offdiag_on_offdiagonal_support(self):
        # with the repeated-index entries zeroed no Hermite factor enters:
        # every term is a product of distinct cells, w_i w_j (F_ij + F_ji)
        rng = np.random.default_rng(47)
        F = rng.normal(size=(5, 5))
        np.fill_diagonal(F, 0.0)
        expr = hermite_expression(F, 0.6)
        assert all(p == 1 for key in expr.terms for _, p in key)
        for (i, _), (j, _) in expr.terms:
            assert expr.terms[(i, 1), (j, 1)] == F[i, j] + F[j, i]


class TestHelpers:
    def test_symmetrize(self):
        rng = np.random.default_rng(53)
        F = rng.normal(size=(4, 4, 4))
        S = symmetrize_tensor(F)
        for perm in itertools.permutations(range(3)):
            assert np.allclose(np.transpose(S, perm), S, atol=1e-14)
        assert np.allclose(symmetrize_tensor(S), S, atol=1e-14)

    def test_contract_tensors(self):
        rng = np.random.default_rng(59)
        f = rng.normal(size=(4, 4))
        g = rng.normal(size=(4, 4))
        h = 0.31
        got = contract_tensors(f, g, (1,), (0,), h)
        assert np.allclose(got, h * f @ g, atol=1e-14)
        full = contract_tensors(f, g, (0, 1), (0, 1), h)
        assert float(full) == pytest.approx(h * h * float(np.sum(f * g)), rel=1e-13)
        outer = contract_tensors(f, g, (), (), h)
        assert outer.shape == (4, 4, 4, 4)

    def test_rejects_non_cubical(self):
        with pytest.raises(InvalidInputError):
            hermite_expression(np.zeros((3, 4)), 0.1)


class TestIsometry:
    def test_linear_case_exact(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            f = rng.normal(size=5)
            lhs, rhs = discrete_isometry_check(f, 0.44)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_order_two_asymmetric(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            F = rng.normal(size=(6, 6))
            lhs, rhs = discrete_isometry_check(F, 0.17)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_order_three(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            F = rng.normal(size=(5, 5, 5))
            lhs, rhs = discrete_isometry_check(F, 0.8)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_size_cap(self):
        with pytest.raises(SizeError):
            discrete_isometry_check(np.zeros((22, 22, 22)), 0.1)


class TestProductFormula:
    def test_two_point_grid_identity(self):
        f = np.array([1.3, -0.4])
        g = np.array([0.7, 2.1])
        out = discrete_product_formula_check(f, g, 0.9)
        assert out["relative"] < 1e-20

    def test_random_pairs(self):
        rng = np.random.default_rng(79)
        for q, m, n in [(1, 1, 5), (2, 1, 5), (2, 2, 4)]:
            for _ in range(5):
                f = rng.normal(size=(n,) * q)
                g = rng.normal(size=(n,) * m)
                out = discrete_product_formula_check(f, g, 0.37)
                assert out["relative"] < 1e-10

    def test_plain_offdiag_contractions_fail(self):
        # negative control: with plain monomials over all tuples the
        # contraction side misses the diagonal h-corrections and the
        # residual is material
        rng = np.random.default_rng(83)
        f = rng.normal(size=5)
        g = rng.normal(size=5)
        h = 0.5
        lhs = hermite_expression(f, h) * hermite_expression(g, h)
        rhs = plain_expression(contract_tensors(f, g, (), (), h))
        rhs = rhs + plain_expression(contract_tensors(f, g, (0,), (0,), h))
        diff = lhs - rhs
        residual = wick_moment(diff * diff, h)
        scale = wick_moment(lhs * lhs, h)
        assert residual / scale > 1e-3

    def test_order_cap(self):
        with pytest.raises(SizeError):
            discrete_product_formula_check(np.zeros((3, 3, 3)), np.zeros((3, 3)), 0.1)

    def test_grid_mismatch(self):
        with pytest.raises(InvalidInputError):
            discrete_product_formula_check(np.zeros(3), np.zeros(4), 0.1)
