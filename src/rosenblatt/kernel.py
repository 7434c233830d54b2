"""Kernel evaluation and the exact normalizing constant.

The order-q kernel is

    f(x_1..x_q) = A * int_0^t prod_i (s - x_i)_+^{g_i} ds,

with A chosen so that the order-q integral of f has unit variance at
t = 1.  The square of A has a closed form: a polynomial in the exponent
sum against the permanent of the q x q Beta matrix
U[i, j] = B(g_i + 1, -g_i - g_j - 1) of `special.beta_matrix`,

    A^2 = (alpha + 1)(alpha + 2) / (2 * perm U),    alpha = 2*gb + q,

gb being the exponent sum.  The permanent's q! terms cap the order at 6.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import GammaVector, TrendTable, _real, face1_trend, validate
from .errors import DomainError, InvalidInputError, SizeError
from .quadrature import graded_rule
from .special import beta_matrix, permanent

__all__ = [
    "MAX_ORDER",
    "KernelSpec",
    "normalizing_constant",
    "normalizing_constant_sq",
    "eval_kernel",
    "constant_face_ratio",
]

MAX_ORDER = 6


def normalizing_constant_sq(gamma) -> float:
    """A^2 from the closed form; requires the vector strictly inside the region."""
    gamma = GammaVector(gamma)
    if gamma.q > MAX_ORDER:
        raise SizeError(
            f"order {gamma.q} exceeds the cap {MAX_ORDER} (permutation sum grows as q!)"
        )
    report = validate(gamma)
    if not report.inside:
        raise DomainError(
            "normalizing constant needs a strictly admissible vector: "
            + "; ".join(report.violations)
        )
    alpha = 2.0 * gamma.gamma_bar + gamma.q
    return (alpha + 1.0) * (alpha + 2.0) / (2.0 * float(permanent(beta_matrix(gamma.entries))))


def normalizing_constant(gamma) -> float:
    return math.sqrt(normalizing_constant_sq(gamma))


def _horizon(value) -> float:
    """`value` as a time horizon: a real number in (0, inf)."""
    t = _real(value, "horizon")
    if not 0.0 < t < math.inf:
        raise InvalidInputError(f"horizon must be positive and finite, got {value!r}")
    return t


@dataclass(frozen=True)
class KernelSpec:
    """Immutable (gamma, horizon) pair with the constant A computed from gamma."""

    gamma: GammaVector
    horizon: float = 1.0
    constant: float = field(init=False)

    def __post_init__(self):
        gamma = GammaVector(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "horizon", _horizon(self.horizon))
        object.__setattr__(self, "constant", normalizing_constant(gamma))

    @property
    def q(self) -> int:
        return self.gamma.q

    def to_dict(self) -> dict:
        return {"gamma": list(self.gamma.entries), "t": self.horizon, "A": self.constant}


def _s_integral(gammas, x, t: float) -> float:
    """int_0^t prod_i (s - x_i)_+^{g_i} ds without the constant."""
    x = np.asarray(x, dtype=float)
    s0 = max(0.0, float(np.max(x)))
    if s0 >= t:
        return 0.0
    tied = x == s0  # none when every coordinate is negative
    g_sing = float(np.sum(np.asarray(gammas)[tied]))
    if g_sing <= -1.0:
        # two or more coordinates tie at the lower integration limit and
        # their combined exponent makes the integral blow up
        return math.inf
    free = [(g, xi) for g, xi, is_tied in zip(gammas, x, tied) if not is_tied]
    # s = s0 + span f, with the tied power span^g_sing f^g_sing in the weights
    span = t - s0
    # a free coordinate just below s0 puts a branch point at f = -gap/span;
    # grade on until the corner panel is no wider than that gap
    gap = min((s0 - xi for _, xi in free), default=span) / span
    n_lo = 9
    while n_lo < 40 and 0.5 * 0.3 ** (n_lo - 1) > gap:
        n_lo += 1
    f, _, weights = graded_rule(n_lo, 1, 0.3, 8, g_sing or None)
    vals = np.ones_like(f)
    for g, xi in free:
        vals *= ((s0 - xi) + span * f) ** g
    return span ** (1.0 + g_sing) * float(np.dot(weights, vals))


def eval_kernel(spec: KernelSpec, x, mode: str = "raw") -> float:
    """Value of the kernel at a point of R^q.

    A NaN coordinate raises InvalidInputError; a -inf one takes its
    limit, so the value there is 0.  mode="raw" evaluates the kernel as
    defined (coordinate i against exponent i); mode="symmetrized"
    averages over all argument orders.
    The s-integral runs on the cycle quadrature's graded rule on (s0, t),
    s0 = max(0, x): 8-node panels shrinking by 0.3 into s0, the corner
    one absorbing the power of the coordinates tied at s0, and one panel
    next to t.  There are nine panels into s0 (80 nodes), or more, up to
    40, until the corner panel is no wider than the gap between s0 and
    the nearest free coordinate below it, whose singular point the chain
    then resolves.  Against the adaptive reference
    `tests/helpers.kernel_quadrature` it is accurate to about 2e-9
    relative on random points, and to about 4e-9 on points whose free
    coordinate sits 1e-6 to 1e-2 below s0.
    """
    x = np.asarray(x, dtype=float)
    q = spec.q
    if x.shape != (q,):
        raise InvalidInputError(f"point has shape {x.shape}, kernel order is {q}")
    if np.isnan(x).any():
        raise InvalidInputError(f"point {x} has a NaN coordinate")
    g = spec.gamma.entries
    t = spec.horizon
    if mode == "raw":
        orders = [tuple(range(q))]
    elif mode == "symmetrized":
        orders = list(itertools.permutations(range(q)))
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")
    total = 0.0
    for perm in orders:
        total += _s_integral(g, x[list(perm)], t)
    return spec.constant * total / len(orders)


def constant_face_ratio(path) -> TrendTable:
    """A^2/(2 eps) along a first-exponent path against the tail constant.

    `path.base` holds the fixed coordinates g_2..g_q and each point
    prepends g_1 = -1/2 - eps.  The ratio converges to the order-(q-1)
    constant A^2 of the tail, the table's target, as eps goes to 0.
    """
    return face1_trend(path, lambda eps, point: normalizing_constant_sq(point) / (2.0 * eps),
                       normalizing_constant_sq)
