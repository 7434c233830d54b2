"""Kernel evaluation and the exact normalizing constant.

The order-q kernel is

    f(x_1..x_q) = A * int_0^t prod_i (s - x_i)_+^{g_i} ds,

with A chosen so that the order-q integral of f has unit variance at
t = 1.  The square of A has a closed form: a ratio of polynomial factors
in the exponent sum against a permutation sum of Beta products,

    A^2 = (2*gb + q + 1)(2*gb + q + 2)
          / (2 * sum_sigma prod_j B(g_j + 1, -g_j - g_sigma(j) - 1)),

gb being the exponent sum.  The permutation sum caps the order at 6.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import GammaVector, validate
from .errors import DomainError, InvalidInputError, SizeError
from .quadrature import graded_rule
from .special import pairing_weights

__all__ = [
    "MAX_ORDER",
    "KernelSpec",
    "normalizing_constant",
    "normalizing_constant_sq",
    "eval_kernel",
    "constant_face_ratio",
]

MAX_ORDER = 6


def _as_gamma(gamma) -> GammaVector:
    if isinstance(gamma, GammaVector):
        return gamma
    return GammaVector(tuple(gamma))


def normalizing_constant_sq(gamma) -> float:
    """A^2 from the closed form; requires the vector strictly inside the region."""
    gamma = _as_gamma(gamma)
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
    g = gamma.entries
    q = gamma.q
    gb = gamma.gamma_bar
    denom = 0.0
    for sigma in itertools.permutations(range(q)):
        denom += pairing_weights(g, zip(range(q), sigma))[0]
    return (2.0 * gb + q + 1.0) * (2.0 * gb + q + 2.0) / (2.0 * denom)


def normalizing_constant(gamma) -> float:
    return math.sqrt(normalizing_constant_sq(gamma))


@dataclass(frozen=True)
class KernelSpec:
    """Immutable (gamma, horizon) pair with the cached constant."""

    gamma: GammaVector
    horizon: float = 1.0
    constant: float | None = None

    def __post_init__(self):
        gamma = _as_gamma(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if not (isinstance(self.horizon, (int, float)) and self.horizon > 0):
            raise InvalidInputError(f"horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "horizon", float(self.horizon))
        if self.constant is None:
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
    f, _, weights = graded_rule(9, 1, 0.3, 8, g_sing or None)
    vals = np.ones_like(f)
    for g, xi in free:
        vals *= ((s0 - xi) + span * f) ** g
    return span ** (1.0 + g_sing) * float(np.dot(weights, vals))


def eval_kernel(spec: KernelSpec, x, mode: str = "raw") -> float:
    """Value of the kernel at a point of R^q.

    mode="raw" evaluates the kernel as defined (coordinate i against
    exponent i); mode="symmetrized" averages over all argument orders.
    The s-integral runs on the cycle quadrature's graded rule on (s0, t),
    s0 = max(0, x): nine 8-node panels shrinking by 0.3 into s0, the
    corner one absorbing the power of the coordinates tied at s0, and one
    panel next to t (80 nodes).  Against the adaptive reference
    `tests/helpers.kernel_quadrature` it is accurate to about 2e-9
    relative on random points, but only to about 3.7e-4 when a free
    coordinate sits 1e-6 to 1e-2 below s0: the rule grades into s0
    alone, not into that nearby singular point.
    """
    x = np.asarray(x, dtype=float)
    q = spec.q
    if x.shape != (q,):
        raise InvalidInputError(f"point has shape {x.shape}, kernel order is {q}")
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


def constant_face_ratio(gamma_tail, epsilons) -> list[dict]:
    """Track A^2/(2 eps) along the first-exponent face against the tail constant.

    gamma_tail holds the fixed coordinates g_2..g_q; each row prepends
    g_1 = -1/2 - eps.  The ratio converges to the order-(q-1) constant of
    the tail as eps goes to 0.
    """
    tail = tuple(float(v) for v in gamma_tail)
    if len(tail) == 0:
        raise SizeError("dropping the first coordinate of an order-1 vector leaves nothing")
    from .domain import BoundaryPath, Face, path_points

    path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector(tail), tuple(epsilons))
    target = normalizing_constant_sq(GammaVector(tail))
    rows = []
    for eps, vec in zip(path.epsilons, path_points(path)):
        ratio = normalizing_constant_sq(vec) / (2.0 * eps)
        rows.append(
            {
                "epsilon": eps,
                "ratio": ratio,
                "target": target,
                "rel_gap": abs(ratio - target) / target,
            }
        )
    return rows
