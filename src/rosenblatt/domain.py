"""Exponent vectors, the admissible region, and boundary paths.

The admissible region for an order-q exponent vector is the open set

    -1 < g_i < -1/2 for every i,   and   g_1 + ... + g_q > -(q+1)/2.

Its two interesting boundary faces are g_1 -> -1/2 (first exponent to
one half, mixed-Gaussian limit) and sum -> -(q+1)/2 (central limit).
Membership is a computed predicate, not a construction precondition:
limit experiments need vectors arbitrarily close to the faces.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

from .errors import InvalidInputError, PathInfeasibleError

__all__ = [
    "GammaVector",
    "DomainReport",
    "Face",
    "BoundaryPath",
    "validate",
    "path_points",
    "TrendTable",
    "face1_trend",
]


def _is_real(value) -> bool:
    # bool is an int subclass, but True is no number here
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value, name: str) -> float:
    """`value` as a float; the package's one check of real scalar input.
    Anything but a real, non-bool number raises InvalidInputError."""
    if not _is_real(value):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """`value` as an int; anything but an integral, non-bool number raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GammaVector:
    """A nonempty vector of real exponents; the package's one parser of
    exponent input.  Anything but an iterable of real, non-bool numbers
    raises InvalidInputError."""

    entries: tuple[float, ...]

    def __post_init__(self):
        try:
            entries = tuple(self.entries)
        except TypeError:
            entries = ()
        if not entries or not all(map(_is_real, entries)):
            raise InvalidInputError(f"gamma must be a nonempty iterable of real numbers, got {self.entries!r}")
        object.__setattr__(self, "entries", tuple(float(v) for v in entries))

    @property
    def q(self) -> int:
        return len(self.entries)

    @property
    def gamma_bar(self) -> float:
        """Sum of the entries."""
        return float(sum(self.entries))

    def __iter__(self):
        return iter(self.entries)


class Face(enum.Enum):
    FIRST_EXPONENT_TO_HALF = "first-exponent-to-half"
    SUM_TO_CRITICAL = "sum-to-critical"


@dataclass(frozen=True)
class DomainReport:
    inside: bool
    violations: tuple[str, ...]
    face1_distance: float
    face2_distance: float


def validate(gamma: GammaVector) -> DomainReport:
    """Strict-inequality membership test with per-face distances.

    face1_distance = -1/2 - g_1 (positive inside), face2_distance =
    sum + (q+1)/2 (positive inside).  Non-finite entries are rejected.
    """
    gamma = GammaVector(gamma)
    if any(not math.isfinite(v) for v in gamma.entries):
        raise InvalidInputError(f"non-finite entry in gamma vector {gamma.entries}")

    violations = []
    for i, g in enumerate(gamma.entries, start=1):
        if not g > -1.0:
            violations.append(f"gamma_{i}={g} not > -1")
        if not g < -0.5:
            violations.append(f"gamma_{i}={g} not < -1/2")
    critical = -(gamma.q + 1) / 2.0
    if not gamma.gamma_bar > critical:
        violations.append(f"sum {gamma.gamma_bar} not > {critical}")

    return DomainReport(
        inside=not violations,
        violations=tuple(violations),
        face1_distance=-0.5 - gamma.entries[0],
        face2_distance=gamma.gamma_bar - critical,
    )


@dataclass(frozen=True)
class BoundaryPath:
    """A sequence of admissible vectors approaching one boundary face.

    For FIRST_EXPONENT_TO_HALF, `base` holds the fixed coordinates
    g_2..g_q and each step prepends g_1 = -1/2 - eps.  For
    SUM_TO_CRITICAL, `base` is a full vector whose coordinates are moved
    (proportionally to their slack) until the sum equals
    -(q+1)/2 + eps, subject to the floor g_i > -1 + floor_epsilon.
    """

    face: Face
    base: GammaVector
    epsilons: tuple[float, ...]
    floor_epsilon: float = 0.05

    def __post_init__(self):
        # path_points reads any other face as face 2
        if not isinstance(self.face, Face):
            raise InvalidInputError(f"face must be a Face member, got {self.face!r}")
        try:
            given = tuple(self.epsilons)
        except TypeError:
            raise InvalidInputError(f"epsilons must be an iterable of real numbers, got {self.epsilons!r}") from None
        eps = tuple(_real(e, "epsilon") for e in given)
        if not eps:
            raise InvalidInputError("path needs at least one epsilon")
        if not all(e > 0 for e in eps):
            raise InvalidInputError("epsilons must be strictly positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise InvalidInputError("epsilons must be strictly decreasing")
        floor = _real(self.floor_epsilon, "floor_epsilon")
        if not floor > 0:
            raise InvalidInputError("floor_epsilon must be positive")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "floor_epsilon", floor)
        object.__setattr__(self, "base", GammaVector(self.base))


def _face1_point(path: BoundaryPath, eps: float) -> GammaVector:
    g1 = -0.5 - eps
    vec = GammaVector((g1,) + path.base.entries)
    report = validate(vec)
    if not report.inside:
        raise PathInfeasibleError(
            f"epsilon={eps} puts {vec.entries} outside the region: "
            + "; ".join(report.violations),
            epsilon=eps,
        )
    return vec


def _face2_point(path: BoundaryPath, eps: float) -> GammaVector:
    base = path.base.entries
    q = len(base)
    floor = -1.0 + path.floor_epsilon
    target = -(q + 1) / 2.0 + eps
    move = target - sum(base)
    if move == 0.0:
        vec = GammaVector(base)
    else:
        if move < 0:
            slack = [b - floor for b in base]
        else:
            slack = [-0.5 - b for b in base]
        total = sum(slack)
        if total <= 0 or any(s <= 0 for s in slack):
            raise PathInfeasibleError(
                f"epsilon={eps}: no slack to move the sum by {move}", epsilon=eps
            )
        vec = GammaVector(tuple(b + move * s / total for b, s in zip(base, slack)))
    report = validate(vec)
    bad = [g for g in vec.entries if not g > floor]
    if not report.inside or bad:
        raise PathInfeasibleError(
            f"epsilon={eps} gives {vec.entries}, violating the region or the "
            f"floor {floor}",
            epsilon=eps,
        )
    return vec


def path_points(path: BoundaryPath) -> list[GammaVector]:
    """Generate the admissible vectors along the path, one per epsilon."""
    maker = _face1_point if path.face is Face.FIRST_EXPONENT_TO_HALF else _face2_point
    return [maker(path, e) for e in path.epsilons]


@dataclass(frozen=True)
class TrendTable:
    """Values along a boundary path against their eps -> 0 target.

    `rows` holds (epsilon, value) pairs.  A gap is |value - target|,
    relative to a nonzero target and absolute against a zero one.
    """

    rows: tuple
    target: float

    def values(self) -> list:
        return [v for _, v in self.rows]

    def gaps(self) -> list:
        scale = abs(self.target) or 1.0
        return [abs(v - self.target) / scale for _, v in self.rows]


def face1_trend(path: BoundaryPath, value, target) -> TrendTable:
    """Tabulate value(eps, point) along a first-exponent path.

    `target` maps the path's fixed tail g_2..g_q to the eps -> 0 limit.
    Anything but a first-exponent BoundaryPath is rejected before either
    callable runs.
    """
    if not isinstance(path, BoundaryPath) or path.face is not Face.FIRST_EXPONENT_TO_HALF:
        raise InvalidInputError(f"expected a first-exponent BoundaryPath, got {path!r}")
    limit = float(target(path.base))
    points = zip(path.epsilons, path_points(path))
    return TrendTable(tuple((eps, float(value(eps, point))) for eps, point in points), limit)
