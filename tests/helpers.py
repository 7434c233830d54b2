"""Independent quadrature oracles shared by the test suite.

These deliberately avoid the package's own evaluation paths.  Endpoint
power singularities are removed by explicit substitutions before handing
the integrand to scipy's adaptive quadrature, so the oracles are accurate
to near machine precision and share no code with what they check.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate


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


def tiny_grid(n_cells: int, left: float, horizon: float, s_panels: int = 4, s_order: int = 4):
    """Small uniform hand grid for oracle comparisons (equal cell widths
    so variance-h Wick arithmetic applies directly)."""
    from rosenblatt.grid import GridSpec, s_rule

    edges = np.linspace(-left, horizon, n_cells + 1)
    nodes, weights = s_rule(0.0, horizon, s_panels, s_order)
    return GridSpec(
        edges=edges, core_left=left, mesh=float(edges[1] - edges[0]),
        horizon=horizon, s_nodes=nodes, s_weights=weights,
        s_panels=s_panels, s_order=s_order,
        tail_tolerance=1.0, tail_estimate=0.0,
    )


def tiny_hat_tensor(ker, grid) -> np.ndarray:
    """Discretized kernel tensor F_hat on a tiny grid, rebuilt with plain
    loops (independent of the sampler's vectorized factor code): entry
    (c1..cq) is A * sum_m w_m prod_i cellavg_i(c_i, s_m)."""
    gammas = ker.gamma.entries
    q = len(gammas)
    edges = grid.edges
    n = len(edges) - 1
    s = grid.s_nodes
    w = grid.s_weights
    avgs = []
    for g in gammas:
        p = g + 1.0
        a = np.zeros((n, len(s)))
        for c in range(n):
            el, er = edges[c], edges[c + 1]
            for m, sm in enumerate(s):
                hi = max(sm - el, 0.0) ** p
                lo = max(sm - er, 0.0) ** p
                a[c, m] = (hi - lo) / (p * (er - el))
        avgs.append(a)
    shape = (n,) * q
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        acc = w.copy()
        for i, c in enumerate(idx):
            acc = acc * avgs[i][c]
        out[idx] = ker.constant * acc.sum()
    return out


def _set_partitions(items: list):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for k in range(len(part)):
            yield part[:k] + [[head] + part[k]] + part[k + 1 :]


def _dense_factors(ker, grid, interval):
    """s-rule and whole-grid factor matrices b_i (cells x s-nodes)."""
    from rosenblatt.grid import s_rule
    from rosenblatt.sampler import factor_matrix

    if interval is None:
        nodes, weights = grid.s_nodes, grid.s_weights
    else:
        nodes, weights = s_rule(interval[0], interval[1], grid.s_panels, grid.s_order)
    return nodes, weights, [factor_matrix(grid.edges, g, nodes) for g in ker.gamma.entries]


def dense_chaos_reference(ker, grid, xi, interval=None) -> np.ndarray:
    """Sampled-estimator values for the noise rows `xi` (realizations x
    cells), by the plain Moebius sum over dense factor matrices at every
    s-node: each set partition of the coordinates contributes
    prod_B (-1)^(|B|-1) (|B|-1)! (xi^|B| @ prod_{i in B} b_i), summed with
    the s-weights.  No stacking, folding or far-field compression."""
    nodes, weights, b = _dense_factors(ker, grid, interval)
    total = np.zeros((len(xi), len(nodes)))
    for part in _set_partitions(list(range(len(b)))):
        term = np.ones_like(total)
        for block in part:
            prod = np.ones_like(b[0])
            for i in block:
                prod = prod * b[i]
            term = term * ((xi ** len(block)) @ prod)
            term = term * (-1.0) ** (len(block) - 1) * math.factorial(len(block) - 1)
        total += term
    return ker.constant * (total @ weights)


def dense_second_moment_reference(ker, grid, interval=None) -> float:
    """Exact E[Z_hat^2] by the plain Gram engine over dense factor matrices:
    for each permutation sigma and set partition of the coordinates, the
    product over blocks B of (prod_{i in B} b_i)^T (prod_{i in B} b_sigma(i))
    with the Moebius weight, contracted with the s-weights on both sides.
    Every cell of the grid enters every Gram; no far-field compression."""
    nodes, weights, b = _dense_factors(ker, grid, interval)
    q = len(b)
    total = 0.0
    for sigma in itertools.permutations(range(q)):
        for part in _set_partitions(list(range(q))):
            term = np.ones((len(nodes), len(nodes)))
            for block in part:
                left = np.prod([b[i] for i in block], axis=0)
                right = np.prod([b[sigma[i]] for i in block], axis=0)
                term = term * (left.T @ right)
                term = term * (-1.0) ** (len(block) - 1) * math.factorial(len(block) - 1)
            total += float(weights @ term @ weights)
    return ker.constant**2 * total
