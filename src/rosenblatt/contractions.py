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
over a gap z with an explicit piecewise-linear length factor.  Every
singular location is then a known end of a segment in z, and each
segment is integrated in its own coordinate f in (0,1).  A power whose
singular point sits at a segment end is h^alpha f^alpha; every other
power is (off + h f)^alpha with the offset taken exactly from the cell's
parametrization, so no distance is a difference of absolute coordinates.

The package's cached graded rule, `quadrature.graded_rule`, serves every
axis: panel chains shrink geometrically into both ends, the corner panels
use Gauss-Jacobi rules that absorb the end power exactly, and the f-part
of every end power is folded into the weights.  The inner sums over a
block of cells are one product of a (cells x nodes) power table with the
weights' moments (w, w x).  Every base off + h node of the table is one
rank-2 product [h, off] @ [node; 1], and the node factors and moments
are cached per z-rule.  Each tensor sum allocates its tables once and
hands them to every block, so concurrent calls share no scratch.  Cells
run in fixed-size blocks and every sum runs over fixed-shape arrays in a
fixed order, so repeated evaluations are bit-identical.

Two matchings need no quadrature, because the cycle splits.  The empty
matching (alpha1 = 0) gives the product of the two plain norms,
2 b2 / ((alpha2 + 1)(alpha2 + 2)) times the same in alpha3 and b3.  The
full matching (alpha2 = alpha3 = 0) gives the square of one inner
product, ((c_plus + c_minus) / ((alpha1 + 1)(alpha1 + 2)))^2.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import BoundaryPath, GammaVector, TrendTable, _integer, _real, face1_trend
from .errors import DivergentIntegralError, InvalidInputError, QuadratureError, SizeError
from .kernel import MAX_ORDER, normalizing_constant_sq
from .quadrature import _frozen, graded_rule
from .special import beta_matrix

__all__ = [
    "ContractionSpec",
    "PhiFactors",
    "enumerate_contractions",
    "phi_factors",
    "phi_cycle_integral",
    "contraction_norm_sq",
    "ncl_condition_ii_trend",
    "ncl_condition_iii_limit",
    "condition_i_indicator_norm",
]


# ---------------------------------------------------------------------------
# contraction specifications


def _slots(values, name: str) -> tuple:
    try:
        given = tuple(values)
    except TypeError:
        raise InvalidInputError(f"{name} must be an iterable of integers, got {values!r}") from None
    return tuple(_integer(v, name) for v in given)


@dataclass(frozen=True)
class ContractionSpec:
    """Which slots of two kernels get matched, and how.

    `indices` are the matched slots of the first kernel (1-based),
    `images` the slots of the second kernel they pair with, aligned
    entry by entry.  The pairing must be one-to-one.  Pairs are stored
    sorted by first-kernel slot, so equal contractions compare equal.
    Orders and slots must be integers; nothing is truncated.
    """

    q: int
    m: int
    indices: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        q, m = _integer(self.q, "q"), _integer(self.m, "m")
        if q < 1 or m < 1:
            raise InvalidInputError(f"orders must be positive, got q={q}, m={m}")
        idx, img = _slots(self.indices, "slot"), _slots(self.images, "image")
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
        pairs = sorted(zip(idx, img))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "indices", tuple(i for i, _ in pairs))
        object.__setattr__(self, "images", tuple(j for _, j in pairs))

    @property
    def r(self) -> int:
        return len(self.indices)

    def pairs(self) -> tuple:
        return tuple(zip(self.indices, self.images))


def enumerate_contractions(q: int, m: int, r: int) -> list:
    """All ways to match r slots of an order-q kernel into an order-m one.

    Returns C(q,r) * C(m,r) * r! specifications; r = 0 gives the single
    empty matching.
    """
    q, m, r = _integer(q, "q"), _integer(m, "m"), _integer(r, "r")
    if q < 1 or m < 1:
        raise InvalidInputError(f"orders must be positive, got q={q}, m={m}")
    if max(q, m) > MAX_ORDER:
        raise SizeError(f"order {max(q, m)} exceeds the cap {MAX_ORDER}")
    if r < 0 or r > min(q, m):
        raise InvalidInputError(f"r={r} not in 0..min({q},{m})")
    return [ContractionSpec(q, m, idx, img) for idx in itertools.combinations(range(1, q + 1), r)
            for img in itertools.permutations(range(1, m + 1), r)]


# ---------------------------------------------------------------------------
# the cycle factors


@dataclass(eq=False)
class PhiFactors:
    """Exponents and coefficients of the three bivariate cycle factors.

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
    gamma: tuple


def _coerce_gamma(gamma) -> tuple:
    entries = GammaVector(gamma).entries
    for i, g in enumerate(entries, start=1):
        # Beta coefficients need each coordinate strictly in (-1, -1/2),
        # which no NaN or infinity is; the sum constraint is deliberately
        # not enforced here, so that divergent configurations reach the
        # named error below.
        if not (-1.0 < g < -0.5):
            raise InvalidInputError(f"exponent {g} at slot {i} outside (-1, -1/2)")
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
    rest_second = [k for k in range(1, spec.m + 1) if k not in set(spec.images)]

    a1 = sum(g[i - 1] + g[j - 1] for i, j in pairs) + spec.r
    a2 = 2.0 * sum(g[j - 1] for j in rest_first) + (spec.q - spec.r)
    a3 = 2.0 * sum(g[k - 1] for k in rest_second) + (spec.m - spec.r)

    # products of Beta-matrix entries: U[i, j] for s_i < s_j, U[j, i] for
    # s_i > s_j, and the diagonal for an unmatched slot paired with itself
    u = beta_matrix(g)
    first, second = [i - 1 for i in spec.indices], [j - 1 for j in spec.images]
    c_plus, c_minus = float(u[first, second].prod()), float(u[second, first].prod())
    b2 = float(np.diag(u)[[j - 1 for j in rest_first]].prod())
    b3 = float(np.diag(u)[[k - 1 for k in rest_second]].prod())

    return PhiFactors(alpha1=a1, alpha2=a2, alpha3=a3, c_plus=c_plus, c_minus=c_minus,
                      b2=b2, b3=b3, gamma=g)


def _check_integrable(pf: PhiFactors) -> None:
    alphas = (("alpha1", pf.alpha1), ("alpha2", pf.alpha2), ("alpha3", pf.alpha3))
    bad = {name: a for name, a in alphas if a <= -1.0}
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
        scale = _real(scale, "mesh_scale")
        if not (scale > 0 and math.isfinite(scale)):
            raise InvalidInputError(f"mesh_scale must be positive, got {scale}")
        if scale == 1.0:
            return self
        bump = lambda n: max(3, int(round(n * scale)))
        return replace(self, z_side=bump(self.z_side), outer_lo=bump(self.outer_lo), outer_hi=bump(self.outer_hi))


_DEFAULT_MESH = _MeshConfig()

# Entries per block of the (cells x nodes) power tables.  One block's
# tables (256 KB) stay in cache; blocks of 2^16 entries ran about twice as
# slow.  Blocks depend only on the mesh, so repeated calls are bit-identical.
# Each tensor sum allocates one block's scratch, two tables and the
# (cells x 2) factor [h, off], and a short last block uses its leading rows.
_BLOCK = 1 << 14


@functools.lru_cache(maxsize=256)
def _z_rule(z_side, z_ratio, order, alpha_lo, alpha_hi):
    """The z-rule of a gap segment, keyed on plain numbers, as the rank-2
    node factors [x; 1] and [1 - x; 1] and the (nodes x 2) moments (w, w x)."""
    x, xc, w = graded_rule(z_side, z_side, z_ratio, order, alpha_lo, alpha_hi)
    ones = np.ones_like(x)
    return _frozen(np.stack((x, ones)), np.stack((xc, ones)), np.stack((w, w * x), axis=1))


def _segment(h, len0, len1, alpha_lo, alpha_hi, cfg, scratch, below=(), above=()) -> np.ndarray:
    """One gap segment of width h, integrated in its local coordinate f.

    The overlap length is len0 + (len1 - len0) f.  A power whose singular
    point sits at the low (high) end is h^alpha f^alpha (h^alpha (1-f)^alpha);
    alpha_lo (alpha_hi) names it and its f-part lives in the cached
    weights.  Every other power comes as a pair (off, alpha): its singular
    point lies off below the low end, giving (off + h f)^alpha, or off
    above the high end, giving (off + h (1-f))^alpha.  No absolute
    coordinates are differenced, so narrow segments stay finite.

    The power table exp(sum alpha log(off + h node)) is built in the
    caller's scratch (table, base, coef), cut to the block's rows: coef
    holds [h, off], each base is one product coef @ [node; 1], the first
    power is written straight into the table and a second one goes
    through base.  coef then takes the table's product with the moments.
    """
    lo_nodes, hi_nodes, moments = _z_rule(cfg.z_side, cfg.z_ratio, cfg.order, alpha_lo, alpha_hi)
    if below or above:
        table, base, coef = (a[:len(h)] for a in scratch)
        coef[:, 0] = h
        terms = [(lo_nodes, off, alpha) for off, alpha in below] + [(hi_nodes, off, alpha) for off, alpha in above]
        for k, (nodes, off, alpha) in enumerate(terms):
            out = base if k else table
            coef[:, 1] = off
            np.matmul(coef, nodes, out=out)
            np.log(out, out=out)
            out *= alpha
            if k:
                table += base
        s0, s1 = np.matmul(np.exp(table, out=table), moments, out=coef).T
    else:
        s0, s1 = moments.sum(axis=0)
    power = 1.0 + (alpha_lo or 0.0) + (alpha_hi or 0.0)
    return h ** power * (len0 * s0 + (len1 - len0) * s1)


def _gap_same(u, uc, tc, a2, a3, cfg, scratch) -> np.ndarray:
    """Overlap integral for same-orientation gaps u and w = u t < u.

    The a3 point z = w - u and the a2 point z = 0 split (w - 1, 1 - u)
    into three segments.  The other triangle, w > u, is the mirror image
    z -> (w - u) - z of this one with a2 and a3 swapped.
    """
    d = u * tc  # u - w
    return (
        _segment(uc, 0.0, uc, None, a3, cfg, scratch, above=((d, a2),))
        + _segment(d, uc, uc, a3, a2, cfg, scratch)
        + _segment(uc, uc, 0.0, a2, None, cfg, scratch, below=((d, a3),))
    )


def _gap_opposed_inner(u, uc, v, vc, a2, a3, cfg, scratch) -> np.ndarray:
    """Overlap integral for opposed gaps u and w = (1 - u) v, so u + w < 1.

    Both singular points, z = -(u + w) and z = 0, lie inside (-1, 1-u-w);
    the kinks of the length factor at -max(u,w) and -min(u,w) make five
    segments.
    """
    w = uc * v
    span = uc * vc  # 1 - u - w
    shorter, longer, total = np.minimum(u, w), np.maximum(u, w), u + w
    end = span + shorter  # 1 - max(u, w)
    return (
        _segment(span, 0.0, span, None, a3, cfg, scratch, above=((total, a2),))
        + _segment(shorter, span, end, a3, None, cfg, scratch, above=((longer, a2),))
        + _segment(longer - shorter, end, end, None, None, cfg, scratch,
                   below=((shorter, a3),), above=((shorter, a2),))
        + _segment(shorter, end, span, None, a2, cfg, scratch, below=((longer, a3),))
        + _segment(span, span, 0.0, a2, None, cfg, scratch, below=((total, a3),))
    )


def _gap_opposed_outer(u, uc, v, vc, a2, a3, cfg, scratch) -> np.ndarray:
    """Overlap integral for opposed gaps u and w = 1 - u v, so u + w > 1.

    The a3 point z = -(u + w) has left the window (-1, 1-u-w), u(1-v)
    below it; three graded segments between the kinks remain.
    """
    w = uc + u * vc
    shorter, longer = np.minimum(u, w), np.maximum(u, w)
    end = np.minimum(uc, u * v)  # 1 - max(u, w)
    excess = u * vc  # u + w - 1
    return (
        _segment(end, 0.0, end, None, None, cfg, scratch, below=((excess, a3),), above=((longer, a2),))
        + _segment(longer - shorter, end, end, None, None, cfg, scratch,
                   below=((shorter, a3),), above=((shorter, a2),))
        + _segment(end, end, 0.0, None, None, cfg, scratch, below=((longer, a3),), above=((excess, a2),))
    )


def _outer_rule(cfg, alpha_lo=None, alpha_hi=None):
    return graded_rule(cfg.outer_lo, cfg.outer_hi, cfg.outer_ratio, cfg.order, alpha_lo, alpha_hi)


def _tensor_sum(gap, rule_1, rule_2, cfg) -> float:
    """Sum of gap(x1, 1-x1, x2, 1-x2, scratch) over the tensor grid of two rules.

    Cells go through `gap` in blocks of fixed size, and the weighted sum
    runs once over the full array in a fixed order.  The scratch is
    allocated here, once per call, so no two calls share it.
    """
    x1, c1, w1 = rule_1
    x2, c2, w2 = rule_2
    n1, n2 = len(x1), len(x2)
    cols = (np.repeat(x1, n2), np.repeat(c1, n2), np.tile(x2, n1), np.tile(c2, n1))
    wgt = np.multiply.outer(w1, w2).ravel()
    vals = np.empty_like(wgt)
    nodes = 2 * cfg.z_side * cfg.order
    step = max(1, _BLOCK // nodes)
    scratch = (np.empty((step, nodes)), np.empty((step, nodes)), np.empty((step, 2)))
    for i in range(0, len(wgt), step):
        vals[i:i + step] = gap(*(col[i:i + step] for col in cols), scratch)
    return float(np.sum(wgt * vals))


def _cycle_same_orientation(a1, a2, a3, cfg, exploit_symmetry=True) -> float:
    """Integral of u^a1 w^a1 G(u,w) over the unit square, same orientation.

    The integrand is symmetric in (u, w); the collapsed triangle doubles
    unless the caller wants both triangles evaluated.  The triangle w > u
    (w - u > 0) runs through _gap_same's mirror image of its gap integral.
    """
    rules = _outer_rule(cfg, 2.0 * a1 + 1.0), _outer_rule(cfg, a1)
    lower = _tensor_sum(lambda u, uc, t, tc, scratch: _gap_same(u, uc, tc, a2, a3, cfg, scratch), *rules, cfg)
    if exploit_symmetry:
        return 2.0 * lower
    return lower + _tensor_sum(lambda u, uc, t, tc, scratch: _gap_same(u, uc, tc, a3, a2, cfg, scratch), *rules, cfg)


def _cycle_opposed_orientation(a1, a2, a3, cfg) -> float:
    """Integral of u^a1 w^a1 G(u,w) over the unit square, opposed gaps.

    Split along u + w = 1, where the short-gap singular point leaves the
    overlap window; each side maps onto the unit square with the kink on
    an edge, so the regime of a cell is fixed by its parametrization.
    """
    inner = _tensor_sum(
        lambda u, uc, v, vc, scratch: _gap_opposed_inner(u, uc, v, vc, a2, a3, cfg, scratch),
        _outer_rule(cfg, a1, a1 + 1.0),
        _outer_rule(cfg, a1),
        cfg,
    )
    outer = _tensor_sum(
        lambda u, uc, v, vc, scratch: (uc + u * vc) ** a1 * _gap_opposed_outer(u, uc, v, vc, a2, a3, cfg, scratch),
        _outer_rule(cfg, a1 + 1.0),
        _outer_rule(cfg),
        cfg,
    )
    return inner + outer


def phi_cycle_integral(factors: PhiFactors, *, exploit_symmetry: bool = True,
                       mesh_scale: float = 1.0) -> float:
    """The bare cycle integral of phi1 phi1 phi2 phi3 over [0,1]^4.

    No normalizing constant is applied; divergent exponents raise
    DivergentIntegralError and a non-finite result QuadratureError.
    The empty matching (r = 0) returns the exact product of the two plain
    norms, and the full matching (r = q) the exact square of the inner
    product ((c_plus + c_minus) / ((alpha1 + 1)(alpha1 + 2)))^2.
    """
    _check_integrable(factors)
    cfg = _DEFAULT_MESH.scaled(mesh_scale)
    a1, a2, a3 = factors.alpha1, factors.alpha2, factors.alpha3
    # every matched pair adds g_i + g_j + 1 < 0 to alpha1, and every
    # unmatched slot adds 2 g_j + 1 < 0 to alpha2 or alpha3, so an exponent
    # vanishes only when its factor is 1 and the integral splits
    if a1 == 0:
        first = 2.0 * factors.b2 / ((a2 + 1.0) * (a2 + 2.0))
        return first * (2.0 * factors.b3 / ((a3 + 1.0) * (a3 + 2.0)))
    if a2 == 0 and a3 == 0:
        inner = (factors.c_plus + factors.c_minus) / ((a1 + 1.0) * (a1 + 2.0))
        return inner * inner
    j_same = _cycle_same_orientation(a1, a2, a3, cfg, exploit_symmetry=exploit_symmetry)
    j_opp = _cycle_opposed_orientation(a1, a2, a3, cfg)
    cp, cm = factors.c_plus, factors.c_minus
    value = factors.b2 * factors.b3 * ((cp * cp + cm * cm) * j_same + 2.0 * cp * cm * j_opp)
    if not math.isfinite(value):
        raise QuadratureError(
            f"cycle quadrature gave {value!r} for exponents "
            f"({a1:.6g}, {a2:.6g}, {a3:.6g}) at mesh_scale={mesh_scale}"
        )
    return value


# ---------------------------------------------------------------------------
# the operations


def contraction_norm_sq(gamma, spec: ContractionSpec, *, mesh_scale: float = 1.0) -> float:
    """Squared overlap norm of the kernel contracted with itself: A^4
    times `phi_cycle_integral`.

    Empty and full matchings take that function's closed forms, the
    square of the plain kernel norm and the square of one inner product;
    everything in between runs the graded cycle quadrature with relative
    accuracy around 1e-5 on interior exponent vectors.
    """
    pf = phi_factors(gamma, spec)
    # the cycle integral first: divergent exponents raise their own error
    # before the normalizing constant rejects the vector
    value = phi_cycle_integral(pf, mesh_scale=mesh_scale)
    amp_sq = normalizing_constant_sq(pf.gamma)
    return amp_sq * amp_sq * value


def ncl_condition_ii_trend(path: BoundaryPath, spec: ContractionSpec, *,
                           mesh_scale: float = 1.0) -> TrendTable:
    """Scaled cycle integrals along a first-exponent path, against 0.

    Applies to matchings that involve slot 1 but do not pair it with
    itself; the scaling (-1 - 2 g_1)^2 compensates the vanishing
    normalization, so the tabulated values must sink to zero.
    """
    if 1 not in spec.indices:
        raise InvalidInputError("slot 1 must be matched for this check")
    if (1, 1) in spec.pairs():
        raise InvalidInputError("slot 1 paired with itself is excluded here")

    def value(eps, point):
        scale = -1.0 - 2.0 * point.entries[0]
        return scale * scale * phi_cycle_integral(phi_factors(point, spec), mesh_scale=mesh_scale)

    return face1_trend(path, value, lambda base: 0.0)


def ncl_condition_iii_limit(path: BoundaryPath, spec: ContractionSpec, *,
                            mesh_scale: float = 1.0) -> TrendTable:
    """Norms along a first-exponent path against the reduced-order target.

    `spec` matches slots from {2..q} only; slot 1 is adjoined
    automatically and paired with itself.  The target is the same norm
    for the order-(q-1) kernel built from the fixed tail exponents.
    """
    if 1 in spec.indices or 1 in spec.images:
        raise InvalidInputError("slot 1 is adjoined automatically; match only 2..q")
    barred = ContractionSpec(spec.q, spec.m, (1,) + spec.indices, (1,) + spec.images)

    def target(base):
        if spec.q != base.q + 1 or spec.m != spec.q:
            raise InvalidInputError(f"spec is for orders ({spec.q}, {spec.m}), path gives order {base.q + 1}")
        reduced = ContractionSpec(spec.q - 1, spec.m - 1, tuple(i - 1 for i in spec.indices),
                                  tuple(j - 1 for j in spec.images))
        return contraction_norm_sq(base, reduced, mesh_scale=mesh_scale)

    return face1_trend(path, lambda eps, point: contraction_norm_sq(point, barred, mesh_scale=mesh_scale), target)


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
    a, b = _real(a, "a"), _real(b, "b")
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
        return (np.maximum(s - a, 0.0) ** p - np.maximum(s - b, 0.0) ** p) / p

    # The gap integral over z in (-1, 1) has an even power weight at 0.  The
    # correlation int T(s) T(s-z) ds is even in z, so z in (0, 1) is doubled.
    # The graded rule refines only piece ends, so each kink of it ends one:
    # z = b - a, 1 - b and 1 - a, where the shifted window's kinks meet the
    # window's or the end 1, and z = b, where the end s = z does, if T(0) != 0.
    kinks = (b - a, 1.0 - b, 1.0 - a) + ((b,) if a < 0.0 else ())
    cuts = sorted({0.0, 1.0} | {c for c in kinks if 0.0 < c < 1.0})
    z_pieces = [(e0, e1, beta_exp if e0 == 0.0 else None) for e0, e1 in zip(cuts, cuts[1:])]
    zs, wz = [], []
    for e0, e1, alpha in z_pieces:
        x, _, w = graded_rule(cfg.z_side, cfg.z_side, cfg.z_ratio, cfg.order, alpha)
        h = e1 - e0
        zs.append(e0 + h * x)
        # explicit |z|^beta only on the piece away from z = 0
        wz.append(h * w * zs[-1] ** beta_exp if alpha is None else h ** (1.0 + beta_exp) * w)
    z = np.concatenate(zs)
    x, _, w = graded_rule(cfg.z_side, cfg.z_side, cfg.z_ratio, cfg.order)

    def correlation(zb):
        # int T(s) T(s-z) ds over (z, 1), cut at the kinks a, b, a+z, b+z
        # of the two window factors; kinks outside give zero-width pieces
        kinks = np.stack(np.broadcast_arrays(a, b, a + zb, b + zb), axis=1)
        edges = np.column_stack([zb, np.sort(np.clip(kinks, zb[:, None], 1.0), axis=1), np.ones_like(zb)])
        h = np.diff(edges, axis=1)[:, :, None]
        s = edges[:, :-1, None] + h * x
        return np.sum(h * w * window(s) * window(s - zb[:, None, None]), axis=(1, 2))

    # z in blocks, so that the (z x pieces x nodes) tables stay as small
    # as the cycle's power tables
    step = max(1, _BLOCK // (5 * len(x)))
    corr = np.concatenate([correlation(z[i:i + step]) for i in range(0, len(z), step)])
    double_integral = 2.0 * float(np.sum(np.concatenate(wz) * corr))
    if not math.isfinite(double_integral):
        raise QuadratureError(
            f"indicator quadrature gave {double_integral!r} at mesh_scale={mesh_scale}"
        )

    amp_sq = normalizing_constant_sq(g)
    coeff = float(np.diag(beta_matrix(g))[1:].prod())
    return math.sqrt(amp_sq * coeff * double_integral)
