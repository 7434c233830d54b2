"""Exact Gaussian-moment oracle for discretized multiple integrals.

Polynomials in finitely many independent centered Gaussian increments
(variance h per cell) and their exact moments by independence.  The
discretization of a tensor sums over all index tuples with a monic
variance-h Hermite factor per repeated cell (`hermite_expression`); it is
the sampler's estimator, and two identities of multiple integrals hold
for it exactly (Nualart, The Malliavin Calculus and Related Topics, 2006,
sec. 1.1):

  * isometry: E[I(F)^2] = q! h^q ||sym F||^2;
  * product formula: I(f) I(g) is the sum over contractions of the
    h-weighted contracted tensors' discretizations.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from rosenblatt.errors import InvalidInputError, SizeError

MAX_DEGREE = 8
MAX_TUPLES = 10_000

Key = tuple  # sorted tuple of (cell index, power) pairs; () is the constant


@dataclass
class WickExpression:
    """Polynomial in the cell increments, kept as {monomial key: coefficient}."""

    n: int
    terms: dict = field(default_factory=dict)

    def degree(self) -> int:
        return max((sum(p for _, p in key) for key in self.terms), default=0)

    def add_term(self, key: Key, coeff: float) -> None:
        if coeff == 0.0:
            return
        self.terms[key] = self.terms.get(key, 0.0) + coeff

    def __add__(self, other: "WickExpression") -> "WickExpression":
        out = WickExpression(max(self.n, other.n), dict(self.terms))
        for key, c in other.terms.items():
            out.add_term(key, c)
        return out

    def __sub__(self, other: "WickExpression") -> "WickExpression":
        out = WickExpression(max(self.n, other.n), dict(self.terms))
        for key, c in other.terms.items():
            out.add_term(key, -c)
        return out

    def __mul__(self, other: "WickExpression") -> "WickExpression":
        out = WickExpression(max(self.n, other.n))
        for k1, c1 in self.terms.items():
            d1 = dict(k1)
            for k2, c2 in other.terms.items():
                merged = dict(d1)
                for idx, p in k2:
                    merged[idx] = merged.get(idx, 0) + p
                key = tuple(sorted(merged.items()))
                out.add_term(key, c1 * c2)
        if out.degree() > MAX_DEGREE:
            raise SizeError(f"product degree {out.degree()} exceeds the cap {MAX_DEGREE}")
        return out

    def __pow__(self, exponent: int) -> "WickExpression":
        if not isinstance(exponent, int) or exponent < 1:
            raise InvalidInputError(f"power must be a positive integer, got {exponent!r}")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


def _check_square(tensor: np.ndarray):
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim == 0:
        return tensor, 0, 0
    sides = set(tensor.shape)
    if len(sides) != 1:
        raise InvalidInputError(f"tensor must be cubical, got shape {tensor.shape}")
    n = tensor.shape[0]
    if n ** tensor.ndim > MAX_TUPLES:
        raise SizeError(
            f"{n}^{tensor.ndim} tuples exceed the exact-oracle cap {MAX_TUPLES}"
        )
    return tensor, n, tensor.ndim


def symmetrize_tensor(tensor: np.ndarray) -> np.ndarray:
    tensor, _, q = _check_square(tensor)
    if q < 2:
        return tensor.copy()
    out = np.zeros_like(tensor)
    for perm in itertools.permutations(range(q)):
        out += np.transpose(tensor, perm)
    return out / math.factorial(q)


def _hermite_coeffs(m: int, h: float) -> dict:
    """Monic variance-h Hermite polynomial as {power: coefficient}."""
    prev = {0: 1.0}
    if m == 0:
        return prev
    cur = {1: 1.0}
    for k in range(1, m):
        # H_{k+1} = x H_k - k h H_{k-1}
        nxt: dict = {}
        for p, c in cur.items():
            nxt[p + 1] = nxt.get(p + 1, 0.0) + c
        for p, c in prev.items():
            nxt[p] = nxt.get(p, 0.0) - k * h * c
        prev, cur = cur, nxt
    return cur


def hermite_expression(tensor: np.ndarray, h: float) -> WickExpression:
    """Sum over ALL index tuples with Hermite factors per repeated cell.

    On tensors that vanish wherever an index repeats this is the plain
    off-diagonal sum; on general tensors it is the discretization for
    which the chaos identities are exact.
    """
    tensor, n, q = _check_square(tensor)
    if q == 0:
        return WickExpression(0, {(): float(tensor)})
    expr = WickExpression(n)
    for j in itertools.product(range(n), repeat=q):
        c = float(tensor[j])
        if c == 0.0:
            continue
        counts: dict = {}
        for idx in j:
            counts[idx] = counts.get(idx, 0) + 1
        combos = [((), 1.0)]
        for idx in sorted(counts):
            poly = _hermite_coeffs(counts[idx], h)
            combos = [
                (key + (((idx, p),) if p > 0 else ()), coeff * pc)
                for key, coeff in combos
                for p, pc in poly.items()
            ]
        for key, coeff in combos:
            expr.add_term(key, c * coeff)
    return expr


def wick_moment(expr: WickExpression, h: float) -> float:
    """Exact expectation of the polynomial under independent N(0,h) cells."""
    if expr.degree() > MAX_DEGREE:
        raise SizeError(f"degree {expr.degree()} exceeds the cap {MAX_DEGREE}")
    total = 0.0
    for key, coeff in expr.terms.items():
        factor = 1.0
        for _, p in key:
            if p % 2 == 1:
                factor = 0.0
                break
            # E[w^p] = (p-1)!! h^(p/2), the within-cell pairing count
            factor *= math.prod(range(1, p, 2)) * h ** (p // 2)
        total += coeff * factor
    return total


def contract_tensors(f, g, f_axes, g_axes, h: float) -> np.ndarray:
    """Discrete contraction: matched axes summed with weight h per pair."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    r = len(f_axes)
    if r != len(g_axes):
        raise InvalidInputError("axis lists must pair up")
    if r == 0:
        return np.multiply.outer(f, g)
    return np.tensordot(f, g, axes=(list(f_axes), list(g_axes))) * h**r


def discrete_isometry_check(tensor: np.ndarray, h: float):
    """(lhs, rhs) with lhs the oracle second moment of the Hermite sum
    and rhs = q! h^q ||symmetrized tensor||^2."""
    tensor, _, q = _check_square(tensor)
    if q < 1:
        raise InvalidInputError("need a tensor of order at least 1")
    expr = hermite_expression(tensor, h)
    lhs = wick_moment(expr * expr, h)
    rhs = math.factorial(q) * h**q * float(np.sum(symmetrize_tensor(tensor) ** 2))
    return lhs, rhs


def discrete_product_formula_check(f: np.ndarray, g: np.ndarray, h: float) -> dict:
    """Oracle residual of the product formula on general tensors.

    Left side: product of the two Hermite sums.  Right side: for every
    contraction size r, subset and injection, the Hermite sum of the
    h-weighted contraction.  Returns the exact residual second moment and
    its size relative to the left side.
    """
    f, nf, q = _check_square(f)
    g, ng, m = _check_square(g)
    if q < 1 or m < 1:
        raise InvalidInputError("tensors must have order at least 1")
    if nf != ng:
        raise InvalidInputError(f"grids differ: {nf} vs {ng}")
    if q + m > 4:
        raise SizeError(f"q+m = {q + m} exceeds the exact-oracle cap 4")
    lhs = hermite_expression(f, h) * hermite_expression(g, h)
    rhs = WickExpression(nf)
    for r in range(min(q, m) + 1):
        for f_axes in itertools.combinations(range(q), r):
            for g_axes in itertools.permutations(range(m), r):
                rhs = rhs + hermite_expression(contract_tensors(f, g, f_axes, g_axes, h), h)
    diff = lhs - rhs
    residual = wick_moment(diff * diff, h)
    scale = wick_moment(lhs * lhs, h)
    return {
        "residual": residual,
        "lhs_second_moment": scale,
        "relative": residual / scale if scale > 0 else residual,
    }
