"""Independent quadrature oracles shared by the test suite.

These deliberately avoid the package's own evaluation paths.  Endpoint
power singularities are removed by explicit substitutions before handing
the integrand to scipy's adaptive quadrature, so the oracles are accurate
to near machine precision and share no code with what they check.  The
closed-form `cross_integral`, which only the tests evaluate, sits next to
its quadrature oracle.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy import integrate

from rosenblatt.errors import DivergentIntegralError, DomainError
from rosenblatt.kernel import normalizing_constant_sq
from rosenblatt.special import beta


def beta_quadrature(a: float, b: float, tol: float = 1e-12) -> float:
    """int_0^1 t^(a-1) (1-t)^(b-1) dt by split-and-substitute quadrature.

    Split at 1/2; the left half is regularized by u = t^a, the right by
    u = (1-t)^b, leaving smooth integrands.
    """

    def left(u):
        t = u ** (1.0 / a)
        return (1.0 - t) ** (b - 1.0) / a

    def right(u):
        t = 1.0 - u ** (1.0 / b)
        return t ** (a - 1.0) / b

    va, _ = integrate.quad(left, 0.0, 0.5**a, epsabs=0.0, epsrel=tol, limit=300)
    vb, _ = integrate.quad(right, 0.0, 0.5**b, epsabs=0.0, epsrel=tol, limit=300)
    return va + vb


def _check_exponent(g: float, name: str) -> None:
    if not (-1.0 < g < -0.5):
        raise DomainError(f"exponent {name}={g} outside the open interval (-1, -1/2)")


def cross_integral(s1: float, s2: float, g1: float, g2: float) -> float:
    """Closed form of int (s1-x)_+^g1 (s2-x)_+^g2 dx over the real line.

    Requires s1 != s2; at equal arguments the integrand behaves like
    (s-x)^(g1+g2) with g1+g2 < -1 near the upper limit and the integral
    diverges.  The package keeps only its Beta coefficients
    (`special.beta_matrix`); the closed form is checked here against
    `cross_integral_quadrature`.
    """
    _check_exponent(g1, "g1")
    _check_exponent(g2, "g2")
    if s1 == s2:
        raise DivergentIntegralError(
            f"cross integral diverges at s1 = s2 = {s1} (exponent sum {g1 + g2} <= -1)",
            exponents={"g1+g2": g1 + g2},
        )
    power = 1.0 + g1 + g2
    if s2 > s1:
        return (s2 - s1) ** power * beta(1.0 + g1, -1.0 - g1 - g2)
    return (s1 - s2) ** power * beta(1.0 + g2, -1.0 - g1 - g2)


def cross_integral_quadrature(
    s1: float, s2: float, g1: float, g2: float, tol: float = 1e-11
) -> float:
    """int_{-inf}^{min(s1,s2)} (s1-x)^g1 (s2-x)^g2 dx by substitution.

    With w = min(s1,s2) - x the integral splits into w in (0,1), where the
    singular factor w^g is absorbed by u = w^(1+g), and w in (1,inf),
    where v = w^(1+g1+g2) maps the slowly decaying tail onto (0,1) with a
    bounded smooth integrand (the power of v cancels identically).
    """
    m = min(s1, s2)
    d1, d2 = s1 - m, s2 - m

    # near piece, w in (0,1): exactly one of d1, d2 vanishes
    if d1 == 0.0:
        g_sing, g_oth, d_oth = g1, g2, d2
    else:
        g_sing, g_oth, d_oth = g2, g1, d1
    p = 1.0 + g_sing

    def near(u):
        w = u ** (1.0 / p)
        return (w + d_oth) ** g_oth / p

    ia, _ = integrate.quad(near, 0.0, 1.0, epsabs=0.0, epsrel=tol, limit=300)

    # far piece, w in (1,inf)
    c = 1.0 + g1 + g2  # in (-1,0)

    def far(v):
        winv = v ** (-1.0 / c)  # equals 1/w, goes to 0 with v
        return (1.0 + d1 * winv) ** g1 * (1.0 + d2 * winv) ** g2 / (-c)

    ib, _ = integrate.quad(far, 0.0, 1.0, epsabs=0.0, epsrel=tol, limit=300)
    return ia + ib


def kernel_quadrature(gammas, t: float, x, tol: float = 1e-10) -> float:
    """Adaptive-quadrature value of int_0^t prod (s - x_i)_+^g_i ds.

    The only possible singular point is the left limit s0 = max(0, max x),
    handled with scipy's algebraic-weight rule.  Returns inf when the tied
    exponent sum at s0 reaches -1 (the integral genuinely diverges).
    """
    gammas = list(gammas)
    x = list(x)
    s0 = max(0.0, max(x))
    if s0 >= t:
        return 0.0
    xmax = max(x)
    if xmax >= 0.0:
        tied = [g for g, xi in zip(gammas, x) if xi == xmax]
        g_sing = sum(tied)
        if g_sing <= -1.0:
            return math.inf
        rest = [(g, xi) for g, xi in zip(gammas, x) if xi != xmax]

        def smooth(s):
            out = 1.0
            for g, xi in rest:
                out *= (s - xi) ** g
            return out

        val, _ = integrate.quad(
            smooth, s0, t, weight="alg", wvar=(g_sing, 0.0),
            epsabs=0.0, epsrel=tol, limit=300,
        )
        return val

    def full(s):
        out = 1.0
        for g, xi in zip(gammas, x):
            out *= (s - xi) ** g
        return out

    val, _ = integrate.quad(full, 0.0, t, epsabs=0.0, epsrel=tol, limit=300)
    return val


def cycle_mc_oracle(gamma, pairs, n_points: int, seed: int):
    """Plain Monte Carlo estimate of a 4-point cycle integral on [0,1]^4.

    `pairs` lists (slot_a, slot_b, factor) with factor(sa, sb) vectorized;
    factors are built by the caller directly from cross-integral closed
    forms, independent of the package's contraction code.  Returns
    (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    chunk = 500_000
    done = 0
    while done < n_points:
        n = min(chunk, n_points - done)
        s = rng.random((4, n))
        vals = np.ones(n)
        for a, b, factor in pairs:
            vals *= factor(s[a], s[b])
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += n
    mean = total / n_points
    var = max(total_sq / n_points - mean**2, 0.0)
    return mean, math.sqrt(var / n_points)


@functools.lru_cache(maxsize=None)
def _far_gram_entry(ga: float, gb: float, si: float, sj: float, far_left: float) -> float:
    # 1 + ga + gb, exact up to one rounding however close it is to 0
    p = (ga + 0.5) + (gb + 0.5)
    slope = ga * si + gb * sj

    def rest(y):
        log_ratio = ga * math.log1p(si / y) + gb * math.log1p(sj / y)
        return y ** (p - 1.0) * (math.expm1(log_ratio) - slope / y)

    lead = far_left**p / -p + slope * far_left ** (p - 1.0) / (1.0 - p)
    val, _ = integrate.quad(rest, far_left, math.inf, epsabs=1e-16 * abs(lead), epsrel=1e-13, limit=200)
    return lead + val


def far_gram_quadrature(keys, far_left: float, nodes) -> np.ndarray:
    """The continuum far Gram int_L^inf (s_i + y)^g_a (s_j + y)^g_b dy,
    L = far_left, between every (exponent g_a, node s_i) and (g_b, s_j),
    in exponent blocks: entry (a S + i, b S + j) for S nodes.

    Each entry is scipy's quad over y in (L, inf), with no substitution:
    the first two terms of the integrand's expansion in 1/y, y^(g_a+g_b)
    (1 + (g_a s_i + g_b s_j)/y), integrate in closed form, and quad takes
    the remainder, which decays two powers faster, so the slow tail near
    g_a + g_b = -1 costs it nothing.  Against 40-digit hypergeometric
    closed forms the entries are within 1.2e-14 relative over 1500 random
    cases with horizons 0.5 to 3, horizon/8 <= L <= horizon/2 and
    exponents from -0.9999 to -0.5001, and within 1.5e-14 at the corner
    (-0.9999, -0.5001); `tests/test_sampler.py` checks them against
    mpmath at L = horizon/8 and horizon/2.
    """
    cols = [(g, float(s)) for g in keys for s in nodes]
    out = np.empty((len(cols), len(cols)))
    for m, (ga, si) in enumerate(cols):
        for n, (gb, sj) in enumerate(cols[: m + 1]):
            out[m, n] = out[n, m] = _far_gram_entry(ga, gb, si, sj, far_left)
    return out


# Chebyshev roots per exponent at which `far_rows` calls the quadrature
_ORACLE_POINTS = 40


def far_rows(keys, far_left: float, horizon: float, nodes, rtol: float = 0.0) -> np.ndarray:
    """Rows whose Gram is the far Gram at `nodes` in [0, horizon], in
    the layout of `far_gram_quadrature`: the eigenpairs of that Gram
    above rtol times its largest eigenvalue, each row a latent column.

    The Gram is analytic in each node on [0, horizon] (its singularities
    sit at s = -y <= -L, and grids put L >= horizon/8), so it is taken
    from the quadrature at 40 Chebyshev roots on [0, horizon] per
    exponent and interpolated in both nodes by numpy's Chebyshev series:
    455 nodes would cost the quadrature a minute.  At L = horizon/8 the
    interpolated Gram is within 2.4e-14 of its largest entry (3e-15 at
    horizon/2).
    """
    roots = np.cos(np.pi * (np.arange(_ORACLE_POINTS) + 0.5) / _ORACLE_POINTS)
    vander = np.polynomial.chebyshev.chebvander
    deg = _ORACLE_POINTS - 1
    unit = 2.0 * np.asarray(nodes, dtype=float) / horizon - 1.0
    interp = vander(unit, deg) @ np.linalg.inv(vander(roots, deg))
    gram = far_gram_quadrature(tuple(keys), far_left, tuple(0.5 * horizon * (roots + 1.0)))
    blocks = np.kron(np.eye(len(keys)), interp)
    lam, vec = np.linalg.eigh(blocks @ gram @ blocks.T)
    keep = lam > rtol * lam[-1]
    return (vec[:, keep] * np.sqrt(lam[keep])).T


def cell_s_rule(grid, interval=None):
    """The sampler's s-rule rebuilt with a plain loop: the midpoint and
    width of every grid cell's part inside the interval."""
    lo, hi = (0.0, grid.horizon) if interval is None else interval
    nodes, weights = [], []
    for el, er in zip(grid.edges[:-1], grid.edges[1:]):
        a, b = max(el, lo), min(er, hi)
        if b > a:
            nodes.append(0.5 * (a + b))
            weights.append(b - a)
    return np.array(nodes), np.array(weights)


def tiny_hat_tensor(ker, grid, far) -> np.ndarray:
    """Discretized kernel tensor F_hat on a tiny grid, rebuilt with plain
    loops (independent of the sampler's vectorized factor code): entry
    (c1..cq) is A * sum_m w_m prod_i cellavg_i(c_i, s_m).

    The far field comes first: each row of `far` (latent columns x
    (sorted distinct exponents x s-nodes)) is one more cell of the grid's
    variance h, its exponent block divided by sqrt(h) standing for the
    cell average, so that the cell's increment is sqrt(h) times the
    row's latent normal."""
    gammas = ker.gamma.entries
    keys = sorted(set(gammas))
    q = len(gammas)
    edges = grid.edges
    s, w = cell_s_rule(grid)
    n_s, h = len(s), grid.widths[0]
    avgs = []
    for g in gammas:
        p = g + 1.0
        a = np.zeros((grid.n_cells, n_s))
        for c in range(grid.n_cells):
            el, er = edges[c], edges[c + 1]
            for m, sm in enumerate(s):
                hi = max(sm - el, 0.0) ** p
                lo = max(sm - er, 0.0) ** p
                a[c, m] = (hi - lo) / (p * (er - el))
        j = keys.index(g)
        avgs.append(np.vstack([far[:, j * n_s : (j + 1) * n_s] / np.sqrt(h), a]))
    shape = (len(avgs[0]),) * q
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        acc = w.copy()
        for i, c in enumerate(idx):
            acc = acc * avgs[i][c]
        out[idx] = ker.constant * acc.sum()
    return out


def evaluate_expression(expr, w) -> np.ndarray:
    """A WickExpression's value at each row of cell increments `w`."""
    out = np.zeros(len(w))
    for key, coeff in expr.terms.items():
        term = np.full(len(w), coeff)
        for idx, p in key:
            term = term * w[:, idx] ** p
        out += term
    return out


def _matchings(items: list):
    """Every partial matching of `items` as (pairs, unmatched)."""
    if not items:
        yield [], []
        return
    head, rest = items[0], items[1:]
    for pairs, free in _matchings(rest):
        yield pairs, [head] + free
        for k in range(len(free)):
            yield [(head, free[k])] + pairs, free[:k] + free[k + 1 :]


def dense_factors(ker, grid, interval=None, far=None):
    """s-rule and factor matrices b_i (noise columns x s-nodes): the rows
    of `far` (latent columns x (sorted distinct exponents x s-nodes)),
    by default the quadrature oracle's `far_rows`, on top of every grid
    cell's factor_matrix."""
    from rosenblatt.sampler import factor_matrix

    nodes, weights = cell_s_rule(grid, interval)
    keys = sorted(set(ker.gamma.entries))
    if far is None:
        far = far_rows(keys, grid.far_left, grid.horizon, nodes)
    n_s = len(nodes)
    b = []
    for g in ker.gamma.entries:
        j = keys.index(g)
        b.append(np.vstack([far[:, j * n_s : (j + 1) * n_s], factor_matrix(grid.edges, (g,), nodes)]))
    return nodes, weights, b


def dense_chaos_reference(ker, grid, xi, far, interval=None) -> np.ndarray:
    """Sampled-estimator values for the noise rows `xi` (realizations x
    (latent columns, then cells)), by the plain Wick sum over the rows of
    `far` and the dense factor matrices at every s-node.  No grouping,
    folding or restriction to live cells."""
    _, weights, b = dense_factors(ker, grid, interval, far)
    return wick_sum_reference(ker, b, weights, xi)


def wick_sum_reference(ker, b, weights, xi) -> np.ndarray:
    """The plain Wick sum for noise rows `xi` whose column c multiplies
    row c of every factor matrix b_i (noise columns x s-nodes): each
    partial matching of the coordinates contributes (-1)^#pairs
    prod_(i,j) C_ij prod_(k unmatched) (xi @ b_k), with C_ij = sum_c
    b_i[c] b_j[c], summed with the s-weights."""
    total = np.zeros((len(xi), len(weights)))
    for pairs, free in _matchings(list(range(len(b)))):
        term = np.ones_like(total)
        for i, j in pairs:
            term = -term * np.sum(b[i] * b[j], axis=0)
        for k in free:
            term = term * (xi @ b[k])
        total += term
    return ker.constant * (total @ weights)


def dense_second_moment_reference(ker, grid, interval=None) -> float:
    """Exact E[Z_hat^2] by the plain Gram engine over dense factor
    matrices: every cell of the grid enters every Gram, and the far field
    enters through the quadrature oracle's rows."""
    _, weights, b = dense_factors(ker, grid, interval)
    return gram_sum_reference(ker, b, weights)


def gram_sum_reference(ker, b, weights) -> float:
    """The plain Gram engine over factor matrices b_i (noise columns x
    s-nodes): for each permutation sigma, the entrywise product over
    coordinates i of b_i^T b_sigma(i), contracted with the s-weights on
    both sides."""
    total = 0.0
    for sigma in itertools.permutations(range(len(b))):
        term = np.ones((len(weights), len(weights)))
        for i, j in enumerate(sigma):
            term = term * (b[i].T @ b[j])
        total += float(weights @ term @ weights)
    return ker.constant**2 * total


def indicator_norm_quadrature(gamma, a: float, b: float) -> float:
    """`condition_i_indicator_norm` by nested scipy quad.

    The norm is A sqrt(prod_j>1 U_jj) times the square root of
    int int T(s1) T(s2) |s1 - s2|^beta over [0, 1]^2, with the window
    transform T(s) = ((s-a)_+^p - (s-b)_+^p) / p, p = g_1 + 1, and
    beta = 2 sum_j>1 g_j + (q - 1).  In z = s1 - s2 the integrand is even,
    so the double integral is twice the z-integral over (0, 1) of
    z^beta C(z), C(z) = int_z^1 T(s) T(s - z) ds.  The inner quad is cut
    at the kinks of both window factors; the outer one at every z where
    C has a kink: z = b - a, 1 - a and 1 - b, where a kink of T(s - z)
    meets one of T(s) or the end s = 1, and z = b when T(0) != 0, where
    the lower end s = z meets the kink of T(s).  The z^beta singularity
    at 0 is scipy's algebraic weight (QAWS).
    """
    g = tuple(float(x) for x in gamma)
    p = g[0] + 1.0
    beta_exp = 2.0 * sum(g[1:]) + (len(g) - 1)

    def window(s):
        return (max(s - a, 0.0) ** p - max(s - b, 0.0) ** p) / p

    def corr(z):
        kinks = sorted(x for x in (a, b, a + z, b + z) if z < x < 1.0)
        val, _ = integrate.quad(lambda s: window(s) * window(s - z), z, 1.0, points=kinks or None,
                                epsabs=0.0, epsrel=1e-11, limit=400)
        return val

    kinks = [b - a, 1.0 - a, 1.0 - b] + ([b] if a < 0.0 else [])
    cuts = sorted({0.0, 1.0} | {c for c in kinks if 0.0 < c < 1.0})
    total, _ = integrate.quad(corr, 0.0, cuts[1], weight="alg", wvar=(beta_exp, 0.0), epsabs=0.0, epsrel=1e-10,
                              limit=400)
    for lo, hi in zip(cuts[1:], cuts[2:]):
        val, _ = integrate.quad(lambda z: z**beta_exp * corr(z), lo, hi, epsabs=0.0, epsrel=1e-10, limit=400)
        total += val
    coeff = math.prod(beta(gj + 1.0, -2.0 * gj - 1.0) for gj in g[1:])
    return math.sqrt(normalizing_constant_sq(g) * coeff * 2.0 * total)
