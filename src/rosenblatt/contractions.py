"""Contraction enumeration and the singular cycle integrals behind the limit checks.

A contraction matches r slots of one kernel with r slots of another and
integrates the matched pairs out.  The squared overlap norm of a kernel
contracted with itself collapses to a four-variable integral of pairwise
power factors arranged in a cycle,

    norm^2 = A^4 * int_{[0,1]^4} phi1(s1,s2) phi1(s3,s4)
                                 phi2(s1,s3) phi3(s2,s4) ds,

where phi1 carries the matched pairs (two one-sided powers with Beta
coefficients), and phi2, phi3 carry the unmatched slots of each factor
as even power kernels.  All power exponents live in (-1, 0); an exponent
at or below -1 makes the integral diverge and is reported as a named
error rather than evaluated.

The quadrature rewrites the cycle exactly in difference coordinates: the
two one-sided gaps u, w become outer variables with pure power weights,
and the remaining double integral reduces to a single overlap integral
with an explicit piecewise-linear length factor.  Every singular
location is then a known endpoint, so tensorized graded meshes apply:
panel chains shrink geometrically into each singular point, the corner
panels switch to Gauss-Jacobi rules that absorb the local power weight
exactly, and everything else uses per-cell Gauss-Legendre.  Cells are
independent; accumulation always runs over fixed-shape arrays in a fixed
order, so repeated evaluations are bit-identical.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sp

from .domain import BoundaryPath, Face, GammaVector, path_points
from .errors import DivergentIntegralError, InvalidInputError, SizeError
from .kernel import MAX_ORDER, normalizing_constant_sq
from .special import log_beta

__all__ = [
    "ContractionSpec",
    "PhiFactors",
    "TrendTable",
    "ConditionLimitResult",
    "enumerate_contractions",
    "phi_factors",
    "phi_cycle_integral",
    "contraction_norm_sq",
    "ncl_condition_ii_trend",
    "ncl_condition_iii_limit",
    "clt_norm_bound",
    "condition_i_indicator_norm",
    "specs_to_json",
    "trend_to_csv",
]


# ---------------------------------------------------------------------------
# contraction specifications


@dataclass(frozen=True)
class ContractionSpec:
    """Which slots of two kernels get matched, and how.

    `indices` are the matched slots of the first kernel (1-based),
    `images` the slots of the second kernel they pair with, aligned
    entry by entry.  The pairing must be one-to-one.  Pairs are stored
    sorted by first-kernel slot, so equal contractions compare equal.
    """

    q: int
    m: int
    indices: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        q, m = int(self.q), int(self.m)
        if q < 1 or m < 1:
            raise InvalidInputError(f"orders must be positive, got q={q}, m={m}")
        idx = tuple(int(i) for i in self.indices)
        img = tuple(int(j) for j in self.images)
        if len(idx) != len(img):
            raise InvalidInputError(
                f"{len(idx)} matched slots against {len(img)} images"
            )
        if len(set(idx)) != len(idx):
            raise InvalidInputError(f"repeated first-kernel slot in {idx}")
        if len(set(img)) != len(img):
            raise InvalidInputError(f"mapping not one-to-one: repeated image in {img}")
        if any(i < 1 or i > q for i in idx):
            raise InvalidInputError(f"slot out of range 1..{q} in {idx}")
        if any(j < 1 or j > m for j in img):
            raise InvalidInputError(f"image out of range 1..{m} in {img}")
        if len(idx) > min(q, m):
            raise InvalidInputError(
                f"cannot match {len(idx)} slots between orders {q} and {m}"
            )
        pairs = sorted(zip(idx, img))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "indices", tuple(i for i, _ in pairs))
        object.__setattr__(self, "images", tuple(j for _, j in pairs))

    @property
    def r(self) -> int:
        return len(self.indices)

    @property
    def image_set(self) -> frozenset:
        return frozenset(self.images)

    @property
    def mapping(self) -> dict:
        return dict(zip(self.indices, self.images))

    def pairs(self) -> tuple:
        return tuple(zip(self.indices, self.images))

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "indices": list(self.indices),
            "images": list(self.images),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContractionSpec":
        return cls(
            q=data["q"],
            m=data["m"],
            indices=tuple(data["indices"]),
            images=tuple(data["images"]),
        )


def enumerate_contractions(q: int, m: int, r: int) -> list:
    """All ways to match r slots of an order-q kernel into an order-m one.

    Returns C(q,r) * C(m,r) * r! specifications; r = 0 gives the single
    empty matching.
    """
    q, m, r = int(q), int(m), int(r)
    if q < 1 or m < 1:
        raise InvalidInputError(f"orders must be positive, got q={q}, m={m}")
    if max(q, m) > MAX_ORDER:
        raise SizeError(f"order {max(q, m)} exceeds the cap {MAX_ORDER}")
    if r < 0 or r > min(q, m):
        raise InvalidInputError(f"r={r} not in 0..min({q},{m})")
    specs = []
    for idx in itertools.combinations(range(1, q + 1), r):
        for img in itertools.permutations(range(1, m + 1), r):
            specs.append(ContractionSpec(q=q, m=m, indices=idx, images=img))
    return specs


def specs_to_json(specs, path=None) -> str:
    """Serialize a list of contraction specifications; optionally write it."""
    text = json.dumps([s.to_dict() for s in specs], indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# the cycle factors


@dataclass(eq=False)
class PhiFactors:
    """The three bivariate factors of the cycle integrand.

    phi1 couples the matched pairs: a one-sided power of the gap in each
    direction, with direction-dependent Beta coefficients c_plus and
    c_minus.  phi2 and phi3 are even power kernels with coefficients b2
    and b3 covering the unmatched slots of the first and second factor.
    alpha1..alpha3 are the accumulated gap exponents.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    c_plus: float
    c_minus: float
    b2: float
    b3: float
    phi1: Callable
    phi2: Callable
    phi3: Callable
    gamma: tuple
    spec: ContractionSpec


def _coerce_gamma(gamma) -> tuple:
    if isinstance(gamma, GammaVector):
        entries = gamma.entries
    else:
        entries = tuple(float(v) for v in gamma)
    if not entries:
        raise InvalidInputError("gamma vector needs at least one entry")
    for i, g in enumerate(entries, start=1):
        if not math.isfinite(g):
            raise InvalidInputError(f"non-finite exponent at slot {i}")
        # Beta coefficients need each coordinate strictly in (-1, -1/2);
        # the sum constraint is deliberately not enforced here, so that
        # divergent configurations reach the named error below.
        if not (-1.0 < g < -0.5):
            raise InvalidInputError(
                f"exponent {g} at slot {i} outside (-1, -1/2)"
            )
    return entries


def phi_factors(gamma, spec: ContractionSpec) -> PhiFactors:
    """Build the cycle factors for a kernel contracted with itself."""
    if not isinstance(spec, ContractionSpec):
        raise InvalidInputError("spec must be a ContractionSpec")
    g = _coerce_gamma(gamma)
    if spec.q != spec.m or len(g) != spec.q:
        raise InvalidInputError(
            f"self-contraction needs q == m == len(gamma); "
            f"got q={spec.q}, m={spec.m}, len={len(g)}"
        )
    pairs = spec.pairs()
    rest_first = [j for j in range(1, spec.q + 1) if j not in set(spec.indices)]
    rest_second = [k for k in range(1, spec.m + 1) if k not in spec.image_set]

    a1 = sum(g[i - 1] + g[j - 1] for i, j in pairs) + spec.r
    a2 = 2.0 * sum(g[j - 1] for j in rest_first) + (spec.q - spec.r)
    a3 = 2.0 * sum(g[k - 1] for k in rest_second) + (spec.m - spec.r)

    c_plus = math.exp(
        sum(log_beta(g[i - 1] + 1.0, -g[i - 1] - g[j - 1] - 1.0) for i, j in pairs)
    )
    c_minus = math.exp(
        sum(log_beta(g[j - 1] + 1.0, -g[i - 1] - g[j - 1] - 1.0) for i, j in pairs)
    )
    b2 = math.exp(sum(log_beta(g[j - 1] + 1.0, -2.0 * g[j - 1] - 1.0) for j in rest_first))
    b3 = math.exp(sum(log_beta(g[k - 1] + 1.0, -2.0 * g[k - 1] - 1.0) for k in rest_second))

    def phi1(s1, s2):
        d = np.asarray(s2, dtype=float) - np.asarray(s1, dtype=float)
        out = np.zeros_like(d, dtype=float)
        pos = d > 0
        neg = d < 0
        out = np.where(pos, c_plus * np.where(pos, d, 1.0) ** a1, out)
        out = np.where(neg, c_minus * np.where(neg, -d, 1.0) ** a1, out)
        return out

    def phi2(s1, s3):
        d = np.abs(np.asarray(s3, dtype=float) - np.asarray(s1, dtype=float))
        return b2 * np.where(d > 0, d, np.nan) ** a2 if a2 != 0.0 else b2 * np.ones_like(d)

    def phi3(s2, s4):
        d = np.abs(np.asarray(s4, dtype=float) - np.asarray(s2, dtype=float))
        return b3 * np.where(d > 0, d, np.nan) ** a3 if a3 != 0.0 else b3 * np.ones_like(d)

    return PhiFactors(
        alpha1=a1,
        alpha2=a2,
        alpha3=a3,
        c_plus=c_plus,
        c_minus=c_minus,
        b2=b2,
        b3=b3,
        phi1=phi1,
        phi2=phi2,
        phi3=phi3,
        gamma=g,
        spec=spec,
    )


def _check_integrable(pf: PhiFactors) -> None:
    bad = {}
    for name, a in (("alpha1", pf.alpha1), ("alpha2", pf.alpha2), ("alpha3", pf.alpha3)):
        if a <= -1.0:
            bad[name] = a
    if bad:
        detail = ", ".join(f"{k}={v:.6g}" for k, v in sorted(bad.items()))
        raise DivergentIntegralError(
            f"cycle integral diverges: exponent(s) at or below -1 ({detail})",
            exponents=bad,
        )


# ---------------------------------------------------------------------------
# graded quadrature machinery


@dataclass(frozen=True)
class _MeshConfig:
    order: int = 8          # Gauss nodes per panel
    z_side: int = 9         # geometric panels per side of each gap segment
    z_ratio: float = 0.30
    outer_lo: int = 8       # outer panels shrinking into the weighted end
    outer_hi: int = 6       # outer panels shrinking into the opposite end
    outer_ratio: float = 0.30

    def scaled(self, scale: float) -> "_MeshConfig":
        if not (scale > 0 and math.isfinite(scale)):
            raise InvalidInputError(f"mesh_scale must be positive, got {scale}")
        if scale == 1.0:
            return self
        bump = lambda n: max(3, int(round(n * scale)))
        return _MeshConfig(
            order=self.order,
            z_side=bump(self.z_side),
            z_ratio=self.z_ratio,
            outer_lo=bump(self.outer_lo),
            outer_hi=bump(self.outer_hi),
            outer_ratio=self.outer_ratio,
        )


_DEFAULT_MESH = _MeshConfig()


@functools.lru_cache(maxsize=64)
def _rule_gl(p: int):
    x, w = sp.roots_legendre(p)
    return x, w


@functools.lru_cache(maxsize=512)
def _rule_jacobi(p: int, exponent: float):
    # weight (1+x)^exponent on [-1, 1]; exponent 0 degenerates to Legendre
    x, w = sp.roots_jacobi(p, 0.0, exponent)
    return x, w


@functools.lru_cache(maxsize=64)
def _graded_fractions(side: int, ratio: float):
    """Edges in [0,1] of 2*side panels shrinking geometrically into 0 and 1."""
    left = [0.5 * ratio ** (side - 1 - k) for k in range(side)]
    edges = [0.0] + left + [1.0 - v for v in reversed(left[:-1])] + [1.0]
    return np.asarray(edges)


def _segment_contrib(e0, e1, absorb_lo, absorb_hi, a2, a3, c, overlap, cfg) -> np.ndarray:
    """Integrate |z|^a2 |z-c|^a3 L(z) over [e0, e1] for a batch of cells.

    absorb_lo / absorb_hi name the factor (2 or 3) whose singular point
    sits exactly at that end of the segment; the adjacent corner panel
    then uses a Jacobi rule with that power folded into the weights.
    """
    fr = _graded_fractions(cfg.z_side, cfg.z_ratio)
    h = e1 - e0
    acc = np.zeros_like(h)
    last = len(fr) - 2
    for k in range(last + 1):
        f0, f1 = fr[k], fr[k + 1]
        hp = h * (f1 - f0)
        half = 0.5 * hp
        absorbed = None
        if k == 0 and absorb_lo is not None:
            e = a2 if absorb_lo == 2 else a3
            x, wj = _rule_jacobi(cfg.order, e)
            z = (e0 + h * f0)[:, None] + half[:, None] * (1.0 + x)
            wt = half[:, None] ** (e + 1.0) * wj
            absorbed = absorb_lo
        elif k == last and absorb_hi is not None:
            e = a2 if absorb_hi == 2 else a3
            x, wj = _rule_jacobi(cfg.order, e)
            z = (e0 + h * f1)[:, None] - half[:, None] * (1.0 + x)
            wt = half[:, None] ** (e + 1.0) * wj
            absorbed = absorb_hi
        else:
            x, wg = _rule_gl(cfg.order)
            z = (e0 + h * (0.5 * (f0 + f1)))[:, None] + half[:, None] * x
            wt = half[:, None] * wg
        f = overlap(z)
        if absorbed != 2:
            f = f * np.abs(z) ** a2
        if absorbed != 3:
            f = f * np.abs(z - c[:, None]) ** a3
        part = (wt * f).sum(axis=1)
        acc += np.where(hp > 0.0, part, 0.0)
    return acc


def _axis_rule(cfg, alpha_lo=None, alpha_hi=None):
    """Composite rule on (0,1) with the edge powers folded into the weights.

    Approximates int_0^1 x^alpha_lo (1-x)^alpha_hi f(x) dx as sum(w f(x)).
    Corner panels absorb their own edge power through a Jacobi rule; the
    opposite edge power, being smooth there, is evaluated explicitly.
    """
    edges_lo = [0.5 * cfg.outer_ratio ** (cfg.outer_lo - 1 - k) for k in range(cfg.outer_lo)]
    edges_hi = [1.0 - 0.5 * cfg.outer_ratio ** (cfg.outer_hi - 1 - k) for k in range(cfg.outer_hi)]
    edges = [0.0] + edges_lo + sorted(edges_hi) + [1.0]
    # drop a duplicated midpoint if both sides meet exactly at 0.5
    cleaned = [edges[0]]
    for v in edges[1:]:
        if v > cleaned[-1]:
            cleaned.append(v)
    edges = np.asarray(cleaned)
    nodes, weights = [], []
    last = len(edges) - 2
    for k in range(last + 1):
        p0, p1 = edges[k], edges[k + 1]
        hp = p1 - p0
        half = 0.5 * hp
        if k == 0 and alpha_lo is not None:
            x, wj = _rule_jacobi(cfg.order, alpha_lo)
            xs = p0 + half * (1.0 + x)
            ws = half ** (alpha_lo + 1.0) * wj
            if alpha_hi is not None:
                ws = ws * (1.0 - xs) ** alpha_hi
        elif k == last and alpha_hi is not None:
            x, wj = _rule_jacobi(cfg.order, alpha_hi)
            xs = p1 - half * (1.0 + x)
            ws = half ** (alpha_hi + 1.0) * wj
            if alpha_lo is not None:
                ws = ws * xs ** alpha_lo
        else:
            x, wg = _rule_gl(cfg.order)
            xs = p0 + half * (1.0 + x)
            ws = half * wg
            if alpha_lo is not None:
                ws = ws * xs ** alpha_lo
            if alpha_hi is not None:
                ws = ws * (1.0 - xs) ** alpha_hi
        nodes.append(xs)
        weights.append(ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _pair_grid(x1, w1, x2, w2):
    n1, n2 = len(x1), len(x2)
    a = np.repeat(x1, n2)
    b = np.tile(x2, n1)
    w = np.multiply.outer(w1, w2).ravel()
    return a, b, w


def _gap_overlap_same(u, w):
    """Length factor for gaps of the same orientation."""
    def overlap(z):
        val = np.minimum((1.0 - u)[:, None], z + (1.0 - w)[:, None]) - np.maximum(0.0, z)
        return np.maximum(val, 0.0)
    return overlap


def _gap_overlap_opposed(u, w):
    """Length factor for gaps of opposed orientation."""
    def overlap(z):
        val = np.minimum((1.0 - u)[:, None], z + 1.0) - np.maximum(0.0, z + w[:, None])
        return np.maximum(val, 0.0)
    return overlap


def _gap_integral_same(u, w, a2, a3, cfg) -> np.ndarray:
    """Overlap integral for same-orientation gaps u, w (elementwise batch)."""
    c = w - u
    lo = -(1.0 - w)
    hi = 1.0 - u
    zero = np.zeros_like(u)
    overlap = _gap_overlap_same(u, w)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if np.all(c <= 0.0):
            segs = ((lo, c, None, 3), (c, zero, 3, 2), (zero, hi, 2, None))
        elif np.all(c >= 0.0):
            segs = ((lo, zero, None, 2), (zero, c, 2, 3), (c, hi, 3, None))
        else:
            raise InvalidInputError("batch mixes gap orderings")
        out = np.zeros_like(u)
        for e0, e1, alo, ahi in segs:
            out += _segment_contrib(e0, e1, alo, ahi, a2, a3, c, overlap, cfg)
    return out


def _gap_integral_opposed(u, w, a2, a3, cfg) -> np.ndarray:
    """Overlap integral for opposed-orientation gaps (two layout regimes)."""
    c = -(u + w)
    hi = 1.0 - u - w
    lo = np.full_like(u, -1.0)
    overlap = _gap_overlap_opposed(u, w)
    hi_max = -np.maximum(u, w)
    hi_min = -np.minimum(u, w)
    zero = np.zeros_like(u)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.zeros_like(u)
        if np.all(u + w < 1.0):
            # both singular points interior: five segments, four absorbed corners
            segs = (
                (lo, c, None, 3),
                (c, hi_max, 3, None),
                (hi_max, hi_min, None, None),
                (hi_min, zero, None, 2),
                (zero, hi, 2, None),
            )
        elif np.all(u + w >= 1.0):
            # singular points outside the window: graded ends, no absorption
            segs = (
                (lo, hi_max, None, None),
                (hi_max, hi_min, None, None),
                (hi_min, hi, None, None),
            )
        else:
            raise InvalidInputError("batch mixes overlap regimes")
        for e0, e1, alo, ahi in segs:
            out += _segment_contrib(e0, e1, alo, ahi, a2, a3, c, overlap, cfg)
    return out


def _cycle_same_orientation(a1, a2, a3, cfg, exploit_symmetry=True) -> float:
    """Integral of u^a1 w^a1 G(u,w) over the unit square, same orientation.

    The integrand is symmetric in (u, w); the collapsed triangle doubles
    unless the caller wants both triangles evaluated independently.
    """
    xu, wu = _axis_rule(cfg, alpha_lo=2.0 * a1 + 1.0)
    xt, wt = _axis_rule(cfg, alpha_lo=a1)
    u, t, wgt = _pair_grid(xu, wu, xt, wt)
    lower = float(np.sum(wgt * _gap_integral_same(u, u * t, a2, a3, cfg)))
    if exploit_symmetry:
        return 2.0 * lower
    upper = float(np.sum(wgt * _gap_integral_same(u * t, u, a2, a3, cfg)))
    return lower + upper


def _cycle_opposed_orientation(a1, a2, a3, cfg) -> float:
    """Integral of u^a1 w^a1 G(u,w) over the unit square, opposed gaps.

    Split along u + w = 1, where the short-gap singular point leaves the
    overlap window; each side maps onto the unit square with the kink on
    an edge.
    """
    # u + w < 1: w = (1-u) v
    xu, wu = _axis_rule(cfg, alpha_lo=a1, alpha_hi=a1 + 1.0)
    xv, wv = _axis_rule(cfg, alpha_lo=a1)
    u, v, wgt = _pair_grid(xu, wu, xv, wv)
    inner = float(np.sum(wgt * _gap_integral_opposed(u, (1.0 - u) * v, a2, a3, cfg)))
    # u + w > 1: w = 1 - u v'
    xu2, wu2 = _axis_rule(cfg, alpha_lo=a1 + 1.0)
    xv2, wv2 = _axis_rule(cfg)
    u2, v2, wgt2 = _pair_grid(xu2, wu2, xv2, wv2)
    w2 = 1.0 - u2 * v2
    outer = float(np.sum(wgt2 * w2 ** a1 * _gap_integral_opposed(u2, w2, a2, a3, cfg)))
    return inner + outer


def phi_cycle_integral(factors: PhiFactors, *, exploit_symmetry: bool = True,
                       mesh_scale: float = 1.0) -> float:
    """The bare cycle integral of phi1 phi1 phi2 phi3 over [0,1]^4.

    No normalizing constant is applied; divergent exponents raise.
    """
    _check_integrable(factors)
    cfg = _DEFAULT_MESH.scaled(mesh_scale)
    a1, a2, a3 = factors.alpha1, factors.alpha2, factors.alpha3
    j_same = _cycle_same_orientation(a1, a2, a3, cfg, exploit_symmetry=exploit_symmetry)
    j_opp = _cycle_opposed_orientation(a1, a2, a3, cfg)
    cp, cm = factors.c_plus, factors.c_minus
    return factors.b2 * factors.b3 * ((cp * cp + cm * cm) * j_same + 2.0 * cp * cm * j_opp)


# ---------------------------------------------------------------------------
# the operations


def contraction_norm_sq(gamma, spec: ContractionSpec, *, mesh_scale: float = 1.0,
                        exploit_symmetry: bool = True) -> float:
    """Squared overlap norm of the kernel contracted with itself.

    Full matchings reduce to the square of an exact scalar and empty
    matchings to the square of the plain kernel norm; everything in
    between runs the graded cycle quadrature with relative accuracy
    around 1e-5 on interior exponent vectors.
    """
    pf = phi_factors(gamma, spec)
    _check_integrable(pf)
    amp_sq = normalizing_constant_sq(pf.gamma)
    if spec.r == spec.q:
        scalar = amp_sq * (pf.c_plus + pf.c_minus) / ((pf.alpha1 + 1.0) * (pf.alpha1 + 2.0))
        return scalar * scalar
    if spec.r == 0:
        norm_sq = amp_sq * pf.b2 * 2.0 / ((pf.alpha2 + 1.0) * (pf.alpha2 + 2.0))
        return norm_sq * norm_sq
    value = phi_cycle_integral(pf, exploit_symmetry=exploit_symmetry, mesh_scale=mesh_scale)
    return amp_sq * amp_sq * value


@dataclass(frozen=True)
class TrendTable:
    """Values along a boundary path, with an optional comparison target."""

    kind: str
    rows: tuple

    columns = ("epsilon", "value", "target", "gap")

    def epsilons(self) -> list:
        return [r[0] for r in self.rows]

    def values(self) -> list:
        return [r[1] for r in self.rows]

    def gaps(self) -> list:
        return [r[3] for r in self.rows]

    def strictly_decreasing(self) -> bool:
        vals = self.values()
        return all(b < a for a, b in zip(vals, vals[1:]))


def trend_to_csv(table: TrendTable, path, extra_header=None) -> None:
    """Write a trend table as comment-headed delimited text."""
    lines = [f"# kind={table.kind}"]
    if extra_header:
        for key in sorted(extra_header):
            lines.append(f"# {key}={json.dumps(extra_header[key])}")
    lines.append(",".join(TrendTable.columns))
    for row in table.rows:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _require_face1(path: BoundaryPath) -> None:
    if not isinstance(path, BoundaryPath):
        raise InvalidInputError("expected a BoundaryPath")
    if path.face is not Face.FIRST_EXPONENT_TO_HALF:
        raise InvalidInputError(
            f"this check needs a first-exponent path, got {path.face.value}"
        )


def ncl_condition_ii_trend(path: BoundaryPath, spec: ContractionSpec, *,
                           mesh_scale: float = 1.0) -> TrendTable:
    """Scaled cycle integrals along a first-exponent path.

    Applies to matchings that involve slot 1 but do not pair it with
    itself; the scaling (-1 - 2 g_1)^2 compensates the vanishing
    normalization, so the tabulated values must sink to zero.
    """
    _require_face1(path)
    if 1 not in spec.indices:
        raise InvalidInputError("slot 1 must be matched for this check")
    if spec.mapping[1] == 1:
        raise InvalidInputError("slot 1 paired with itself is excluded here")
    rows = []
    for eps, point in zip(path.epsilons, path_points(path)):
        pf = phi_factors(point, spec)
        scale = -1.0 - 2.0 * point.entries[0]
        value = scale * scale * phi_cycle_integral(pf, mesh_scale=mesh_scale)
        rows.append((float(eps), float(value), 0.0, float(value)))
    return TrendTable(kind="condition-ii", rows=tuple(rows))


@dataclass(frozen=True)
class ConditionLimitResult:
    """Limit comparison for a matched check: estimate, target, and the path."""

    limit_estimate: float
    target: float
    final_gap: float
    table: TrendTable


def ncl_condition_iii_limit(path: BoundaryPath, spec: ContractionSpec, *,
                            mesh_scale: float = 1.0) -> ConditionLimitResult:
    """Norms along a first-exponent path against the reduced-order target.

    `spec` matches slots from {2..q} only; slot 1 is adjoined
    automatically and paired with itself.  The target is the same norm
    for the order-(q-1) kernel built from the fixed tail exponents.
    """
    _require_face1(path)
    q = path.base.q + 1
    if spec.q != q or spec.m != q:
        raise InvalidInputError(
            f"spec is for order {spec.q}, path gives order {q}"
        )
    if 1 in spec.indices or 1 in spec.images:
        raise InvalidInputError("slot 1 is adjoined automatically; match only 2..q")
    barred = ContractionSpec(
        q=q, m=q, indices=(1,) + spec.indices, images=(1,) + spec.images
    )
    reduced = ContractionSpec(
        q=q - 1,
        m=q - 1,
        indices=tuple(i - 1 for i in spec.indices),
        images=tuple(j - 1 for j in spec.images),
    )
    target = contraction_norm_sq(path.base, reduced, mesh_scale=mesh_scale)
    rows = []
    for eps, point in zip(path.epsilons, path_points(path)):
        value = contraction_norm_sq(point, barred, mesh_scale=mesh_scale)
        gap = abs(value - target) / abs(target)
        rows.append((float(eps), float(value), float(target), float(gap)))
    table = TrendTable(kind="condition-iii", rows=tuple(rows))
    return ConditionLimitResult(
        limit_estimate=rows[-1][1],
        target=target,
        final_gap=rows[-1][3],
        table=table,
    )


def clt_norm_bound(gamma, spec: ContractionSpec, *, mesh_scale: float = 1.0) -> tuple:
    """Squared overlap norm plus the combined exponent 2a1 + a2 + a3.

    Only proper partial matchings (1 <= r <= q-1) qualify; the exponent
    sum is reported against the -3 integrability threshold rather than
    asserted.
    """
    if not isinstance(spec, ContractionSpec):
        raise InvalidInputError("spec must be a ContractionSpec")
    if spec.r < 1 or spec.r > spec.q - 1:
        raise InvalidInputError(
            f"partial matching needs 1 <= r <= q-1, got r={spec.r}, q={spec.q}"
        )
    pf = phi_factors(gamma, spec)
    value = contraction_norm_sq(gamma, spec, mesh_scale=mesh_scale)
    exponent_sum = 2.0 * pf.alpha1 + pf.alpha2 + pf.alpha3
    return value, exponent_sum


def condition_i_indicator_norm(gamma, a: float, b: float, *,
                               mesh_scale: float = 1.0) -> float:
    """Norm of the kernel paired against a window indicator in slot 1.

    Integrating the first slot against 1_[a,b] leaves an order-(q-1)
    element; its norm shrinks with the vanishing normalization along the
    first-exponent face.  The double time integral runs over the window
    transform T(s) = ((s-a)_+^p - (s-b)_+^p) / p with p = g_1 + 1.
    """
    g = _coerce_gamma(gamma)
    if len(g) < 2:
        raise InvalidInputError("need order at least 2: one slot is integrated out")
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise InvalidInputError(f"window needs a < b, got [{a}, {b}]")
    beta_exp = 2.0 * sum(g[1:]) + (len(g) - 1)
    if beta_exp <= -1.0:
        raise DivergentIntegralError(
            f"tail exponent {beta_exp:.6g} at or below -1",
            exponents={"beta": beta_exp},
        )
    cfg = _DEFAULT_MESH.scaled(mesh_scale)
    p = g[0] + 1.0

    def window(s):
        out = np.zeros_like(s)
        da = s - a
        db = s - b
        out = np.where(da > 0, np.where(da > 0, da, 1.0) ** p, 0.0)
        out = out - np.where(db > 0, np.where(db > 0, db, 1.0) ** p, 0.0)
        return out / p

    def correlation(z: float) -> float:
        # int T(s) T(s-z) ds over the overlap of (0,1) and (z, 1+z)
        lo = max(0.0, z)
        hi = min(1.0, 1.0 + z)
        if hi <= lo:
            return 0.0
        cuts = {lo, hi}
        for point in (a, b, a + z, b + z):
            if lo < point < hi:
                cuts.add(point)
        edges = sorted(cuts)
        fr = _graded_fractions(cfg.z_side, cfg.z_ratio)
        xg, wg = _rule_gl(cfg.order)
        total = 0.0
        for e0, e1 in zip(edges, edges[1:]):
            seg = e1 - e0
            sub = e0 + seg * fr
            mids = 0.5 * (sub[:-1] + sub[1:])
            halves = 0.5 * np.diff(sub)
            s = mids[:, None] + halves[:, None] * xg
            vals = window(s) * window(s - z)
            total += float(np.sum(halves[:, None] * wg * vals))
        return total

    # gap integral over z in (-1, 1) with an even power weight at 0 and
    # window-width kinks at +-(b - a)
    width = b - a
    cuts = [-1.0, 0.0, 1.0]
    for point in (-width, width):
        if -1.0 < point < 1.0 and point != 0.0:
            cuts.append(point)
    edges = sorted(set(cuts))
    fr = _graded_fractions(cfg.z_side, cfg.z_ratio)
    double_integral = 0.0
    for e0, e1 in zip(edges, edges[1:]):
        seg = e1 - e0
        sub = e0 + seg * fr
        for k in range(len(sub) - 1):
            p0, p1 = sub[k], sub[k + 1]
            half = 0.5 * (p1 - p0)
            if half <= 0:
                continue
            if p1 <= 0.0 and k == len(sub) - 2 and e1 == 0.0:
                x, wj = _rule_jacobi(cfg.order, beta_exp)
                zs = p1 - half * (1.0 + x)
                ws = half ** (beta_exp + 1.0) * wj
                weighted = ws
            elif p0 >= 0.0 and k == 0 and e0 == 0.0:
                x, wj = _rule_jacobi(cfg.order, beta_exp)
                zs = p0 + half * (1.0 + x)
                ws = half ** (beta_exp + 1.0) * wj
                weighted = ws
            else:
                x, wg = _rule_gl(cfg.order)
                zs = 0.5 * (p0 + p1) + half * x
                ws = half * wg
                weighted = ws * np.abs(zs) ** beta_exp
            double_integral += float(
                np.sum(weighted * np.asarray([correlation(z) for z in zs]))
            )

    amp_sq = normalizing_constant_sq(g)
    coeff = math.exp(sum(log_beta(gj + 1.0, -2.0 * gj - 1.0) for gj in g[1:]))
    return math.sqrt(amp_sq * coeff * double_integral)
