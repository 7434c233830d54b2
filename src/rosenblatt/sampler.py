"""Exact-in-distribution sampling of the chaos process on a grid.

The kernel is factorized: each coordinate i contributes a cell-averaged
factor b_i[c, m] over grid cells c and s-quadrature nodes m, so a
realization needs a few matrix products and one standard normal per cell,
except in the far field, which takes a handful of latent normals instead.
The s-rule follows the grid: one Gauss-Legendre node per cell inside the
time interval, with the panels cut at its two ends.  Every factor has a
power kink at each cell edge, so a rule blind to the edges loses accuracy
as the mesh is refined; on the grid's own panels it does not.

Assembly.  At each s-node the X_i = xi @ b_i are centered Gaussians with
covariances C_ij(m) = sum_c b_i[c, m] b_j[c, m], and the estimator is A
times the s-weighted sum of their Wick product :X_1...X_q:, the sum over
partial matchings of {0..q-1} of (-1)^#pairs prod C_ij prod (unmatched
X_k).  This is the cell-averaged kernel's multiple integral with a
Hermite factor per repeated cell, the discretization for which the chaos
identities hold exactly (Nualart, The Malliavin Calculus and Related
Topics, 2006, sec. 1.1; Janson, Gaussian Hilbert Spaces, 1997, ch. 3).
The terms fold by their unmatched factors, over the n = r + live cells
columns of a noise row: with none a term is a constant; with one it is
linear in xi, and its weights fold into one vector; with two it is a
quadratic form, and its weights c fold into one symmetric n x n matrix
M, the sum of (b_i diag(c) b_j^T + b_j diag(c) b_i^T) / 2.  For q = 1
the vector is the whole estimator.  For q = 2, the generalized
Rosenblatt process of Bai and Taqqu, the estimator is A (xi^T M xi - tr
M), the form through which Veillette and Taqqu (Bernoulli, 2013)
evaluate the Rosenblatt law.  Where no term has three or more unmatched
factors and the table is wider than tall, n < k S for k distinct
exponents and S s-nodes, a chunk is assembled as xi @ M and a row-wise
dot, with no projections: on the default q=2 grid that is a product with
522 columns rather than 910.  Elsewhere, as at q >= 3, at equal
exponents (k = 1) or on a short, late sub-interval such as (0.75, 1),
the chunk is projected onto the table, one projection per distinct
exponent, and each remaining term multiplies its unmatched factors'
projections.  The rule reads the geometry alone, never n_samples or the
worker count.  One builder, _build_estimator, makes the table, the fold
and M into one record, and the draws and discrete_second_moment each
call it once.  M comes from its upper block rows M[a:a+64, a:], built
one at a time from the table, each over the s-panels where its rows can
be nonzero: near row c is exactly 0 left of panel c - first, first the
cell holding lo (see Near table), and the latent rows are dense.  A
draw writes M from the blocks and their mirrors and adds up ||M||_F^2
in the same pass; discrete_second_moment sums the same blocks' squares,
the same bits, with no n x n array and no n x S scaled copy of the
table.  M is fixed by (exponents, horizon, cells, lo, hi), which fix
the table, and the draws read M and its norm through a cache by value
under that key, up to _FORM_ENTRIES = 8 entries of n^2 doubles, each
smaller than the n x k S table it stands in for: 2.2 MB on the default
q=2 grid, so at most 17.4 MB for that grid's intervals.  An entry grows
as n^2: at 1820 cells it is 34 MB, and eight such keys hold 271 MB.  A
miss builds M from the draw's own table, so a cold draw factorizes once
and later draws on the key skip the products; discrete_second_moment
leaves the cache alone.

Far field.  Everything left of the grid's first edge -L, L >= t/8 with t
the horizon, is the far field, and no cell covers it: its projections
enter only through their covariance, the continuum far Gram
G[(a,i),(b,j)] = int_L^inf (s_i + y)^g_a (s_j + y)^g_b dy.  With y = t v
it is t^(1+g_a+g_b) times the Gram of far edge L/t at the nodes s/t, so
it is built on the unit horizon, where u = L/y makes it L^(1+g_a+g_b)
int_0^1 u^(-2-g_a-g_b) (1 + s_i u/L)^g_a (1 + s_j u/L)^g_b du, and its
root's exponent block a is scaled by t^(g_a+1/2).  The end power is a
Gauss-Jacobi weight, taken by _FAR_GRAM_NODES = 40 nodes, and the rest
is analytic on [0, 1], its nearest singularity at u = -L/t, no nearer
than -1/8.  At L/t = 1/8 the 40- and 80-node roots' Grams agree to
within 5.4e-15 of their largest entry, at g = -0.5001 too; at the
default grids' L/t and g = -0.5001 they differ by up to 2.1e-14, as much
as 80- and 160-node roots do, so that is rounding.  In s the integrand
is analytic on [0, 1] as well: in [0, 1]'s [-1, 1] coordinates the
nearest singularity sits at -1 - 2L/t <= -1.25, on or outside the
Bernstein ellipse of parameter rho = 2.  Chebyshev interpolation in s
therefore converges like rho^-R (Trefethen, Approximation Theory and
Approximation Practice, ch. 8), so the Gram is built at the R =
_FAR_NODES = 55 points _CHEBYSHEV on [0, 1], whatever the interval, and
the latent root built from it (below) is mapped to the nodes s/t by an
R x S barycentric matrix; R puts rho^-R below 1e-16.  The root is a pure
function of (L/t, distinct exponents), cached by value across horizons,
with L/t taken from the cell counts: r x k x R doubles for k distinct
exponents, about 3 to 16 KB on the default grids of q = 1, 2 and 3.
Only its scale, the s-rule, the map and the near rows are built per
call.

The factor table.  With G = V diag(lam) V^T, the sampler keeps the
eigenpairs with lam above (exponents x R) * eps * max(lam), the usual
numerical-rank cut, and draws the far projections as
eta @ (V diag(lam)^1/2)^T with eta standard normal in r dimensions: the
same law up to the dropped eigenvalues, which are rounding.  The rank r
is small because the integrand is smooth in s (8 to 12 on the default
grids of the test kernels, 6 to 9 at g1 = -0.5001).  Mapped to the
s-nodes, the root gives r latent rows whose Gram matches an independent
quadrature of the far Gram at the s-nodes to within 5.8e-14 of its
largest entry on those grids, and to 3.5e-14 at g1 = -0.5001.  One
table, the first part of _build_estimator's record, then holds every
factor the sampler reads, one row per live noise column: the r latent
rows, then the grid cells left of hi, with the exponent blocks side by
side.  Cells entirely right of hi have zero factors and are skipped.
Its blocks b_i give the projections, the covariances C_ij, the folded
vector and M, and the second moment: Wick products pair only across the
two factors, so E[Z_hat^2] = A^2 w^T perm(G) w, with G the q x q matrix
whose entry G_ij = b_i^T b_j is the S x S Gram over the table's rows,
one block of the table's own Gram, and the permanent's products taken
entrywise.  It is the variance of exactly
the columns drawn, and the discrete twin of the continuum variance,
which is A^2 times the permanent of the Beta matrix U (see `kernel`).
Where the fold leaves no term with three or more unmatched factors, the
same sum reads off the fold: the estimator is A (v . xi + xi^T M xi - tr
M), whose two parts are uncorrelated, so E[Z_hat^2] = A^2 (|v|^2 + 2
||M||_F^2).  At q = 1 that is the folded vector v alone; at q = 2 it is
M, wherever the draw assembles through M (n < k S), at most n^2 S
multiply-adds for the block rows against about k^2 S^2 n / 2 for the
Gram and the permanent's S x S products.  The two agree to 3.1e-15
relative on the test kernels and intervals.  The permanent stays the
route for q >= 3, equal exponents and tables taller than wide, and it is
the tests' oracle for the fold.

Near table.  Every grid is a uniform mesh, so where a near cell c (a
grid cell left of hi) meets a whole s-panel m (a panel that is the full
grid cell k_m), b[c, m] = tau(k_m - c) depends on the lag alone and is
zero for negative lags.  Each exponent block of the near rows is
therefore written from one lag column: factor_matrix at the last whole
panel's s-node over the near rows, reversed, left-padded with zeros and
read through a sliding window one contiguous row at a time.  It matches
direct evaluation to within 1e-13 of the block's largest entry.  The at
most two end panels that lo and hi cut are evaluated directly, so an
interval with no whole panel is factor_matrix's own output, bit for bit.

Randomness: a realization's noise row is [eta (r), xi over every grid
cell], r + n_cells normals.  Realizations come in
fixed blocks of 64, and each block has one stream, spawned from the
master seed with SeedSequence.spawn and drawn with Generator(SFC64(child));
realization k's noise is row k % 64 of its block's (rows, width) fill, so
it depends only on (seed, k, width): not on the worker count or n_samples.
The far field and the root do not depend on the interval, so every
interval on one grid reads the same columns, which couples increments
and the Brownian value pathwise; the far field lies left of 0, so the
Brownian value reads the columns of the last `cells` cells, [0, t],
only.  A degenerate interval lo == hi has no s-node, so its values are 0
and its Brownian value is still B(t).
One stream per block, not per realization, because a stream's set-up
costs about as much as drawing a row of normals on a coarse grid and
holds the GIL, which the parallel chunks would otherwise queue on.
Chunks are whole blocks, _CHUNK = 256 realizations, so no row is drawn
twice.  A draw of one chunk (n_samples <= 256), or any draw on a host
with one usable CPU, runs in the calling thread and starts no pool; more
chunks run on min(usable CPUs, chunks) pool threads.  The chunks are
fixed by _CHUNK, not by the thread count, so assembled values are the
same bits whichever way they run.  A one-chunk draw's rows depend on
(seed, n_samples, width) alone, so it keeps them, read-only, in a
one-entry memo under that key: the next same-seed one-chunk draw on the
grid, such as the next increment of a path, reads them rather than
drawing them again, and no value changes by a bit.  The memo holds at
most 256 x (r + n_cells) x 8 bytes, 1.07 MB on the default q=2 grid.
Draws of two or more chunks neither read nor write it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from collections import OrderedDict, namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .domain import _integer, _is_real
from .errors import DomainError, InvalidInputError, SizeError
from .grid import _FAR_DIVISOR, GridSpec
from .kernel import KernelSpec
from .quadrature import gauss_jacobi
from .special import permanent

__all__ = [
    "factor_matrix",
    "ChaosSampleBatch",
    "sample_chaos",
    "sample_process_increment",
    "discrete_second_moment",
    "save_npz",
    "load_npz",
]


def factor_matrix(edges: np.ndarray, gammas, s_nodes: np.ndarray) -> np.ndarray:
    """Cell-averaged, width-normalized kernel factors, side by side:
    cells x (exponents x s-nodes).

    b[c, m] = (integral of (s_m - x)_+^g over cell c) / (width_c) * sqrt(width_c),
    i.e. the coefficient multiplying a standard normal in the cell-c
    contribution.  Closed form via the antiderivative; edge powers are
    differenced directly (cell widths never shrink relative to the
    distance from s, so cancellation stays below ~1e-12 here).  Each
    exponent's block is written straight into the table: on large grids
    a table-sized copy costs about as much as the powers.
    """
    n_s = len(s_nodes)
    out = np.empty((len(edges) - 1, len(gammas) * n_s))
    ahead = np.maximum(s_nodes[None, :] - edges[:, None], 0.0)  # (n_edges, S)
    root_w = np.sqrt(np.diff(edges))[:, None]
    for j, g in enumerate(gammas):
        p = g + 1.0
        powed = ahead**p
        col = out[:, j * n_s : (j + 1) * n_s]
        np.subtract(powed[:-1], powed[1:], out=col)
        col /= p * root_w
    return out


# Chebyshev points per far-field block: the smallest odd R with rho^-R <
# 1e-16 (see the module docstring); odd R puts a point on the midpoint of
# [0, 1].  A far edge at or left of -t/8 puts the nearest singularity at
# -1 - 2/8 = -1.25 in [0, 1]'s [-1, 1] coordinates, so rho = 2 and R = 55.
# Each near cell costs one normal and one table row per realization, so
# the far edge sits close to 0, at -t/8: a nearer edge leaves fewer near
# cells but brings the singularity closer, which takes more Chebyshev
# points and a larger latent rank.  At -t/16 the q=3 latent rows' error
# would reach 1.0e-13, the tests' bound.
_FAR_RHO = (1.0 + 2.0 / _FAR_DIVISOR) + math.sqrt((1.0 + 2.0 / _FAR_DIVISOR) ** 2 - 1.0)
_FAR_NODES = math.ceil(16.0 / math.log10(_FAR_RHO)) | 1
# the R Chebyshev points of the second kind on the unit horizon [0, 1]
_CHEBYSHEV = 0.5 + 0.5 * np.cos(np.pi * np.arange(_FAR_NODES) / (_FAR_NODES - 1))


def _chebyshev_interpolation(nodes: np.ndarray) -> np.ndarray:
    """The R x S barycentric matrix taking values at _CHEBYSHEV to values
    at `nodes` in [0, 1]."""
    w = (-1.0) ** np.arange(_FAR_NODES)
    w[[0, -1]] *= 0.5
    d = nodes[None, :] - _CHEBYSHEV[:, None]
    hit = d == 0.0
    interp = w[:, None] / np.where(hit, 1.0, d)
    interp /= interp.sum(axis=0)
    exact = hit.any(axis=0)
    interp[:, exact] = hit[:, exact]
    return interp


def _matchings(items: tuple):
    """Partial matchings of `items` as (pairs, unmatched) tuples."""
    if not items:
        yield (), ()
        return
    head, rest = items[0], items[1:]
    for pairs, free in _matchings(rest):
        yield pairs, (head,) + free
        for k, other in enumerate(free):
            yield ((head, other),) + pairs, free[:k] + free[k + 1 :]


class _Estimator(NamedTuple):
    """The sampled estimator of one kernel on one grid and s-interval.

    `table` has one row per live noise column, the r latent rows and then
    the grid cells left of hi, and holds b at the s-nodes for every
    distinct exponent side by side; coordinate i reads the exponent
    block slot[i].  `span` is the s-interval (lo, hi), and s-panel p lies
    in grid cell first + p.  _build_estimator adds the fold (see the
    module docstring): the constant, the vector, the product terms'
    (exponent slots, s-weights), M or None, and ||M||_F^2 or None.
    """

    span: tuple
    s_w: np.ndarray
    r: int
    first: int
    slot: tuple
    table: np.ndarray
    const: float | None = None
    folded: np.ndarray | None = None
    products: list | None = None
    form: np.ndarray | None = None
    form_sq: float | None = None

    def b(self, j: int) -> np.ndarray:
        return self.table[:, j * len(self.s_w) : (j + 1) * len(self.s_w)]


def _span(grid: GridSpec, interval) -> tuple:
    """(lo, hi) of an s-interval inside [0, horizon]; None is the whole.
    An end up to 1e-12 horizon past the horizon is the horizon."""
    if interval is None:
        return 0.0, grid.horizon
    try:
        pair = tuple(interval)
    except TypeError:
        pair = ()
    if len(pair) != 2 or not all(map(_is_real, pair)):
        raise InvalidInputError(f"interval must be a pair of real numbers, got {interval!r}")
    lo, hi = float(pair[0]), float(pair[1])
    t = grid.horizon
    if not (0.0 <= lo <= hi <= t + 1e-12 * t):
        raise InvalidInputError(f"interval {interval} not inside [0, {t}]")
    return min(lo, t), min(hi, t)


def _near_rows(edges: np.ndarray, keys, s_nodes: np.ndarray, lo: float, hi: float, first: int, out: np.ndarray) -> None:
    """factor_matrix(edges, keys, s_nodes) for the near cells, written
    into `out` and built by lag (see the module docstring): s-panel p
    lies in cell first + p, first the cell holding lo, each exponent
    block's whole panels are one lag column, at the last whole panel,
    read through a sliding window, and the cut panels are evaluated
    directly."""
    n_s = len(s_nodes)
    # panels p0..p1-1 are whole grid cells; at most the two end panels are cut
    p0, p1 = int(edges[first] != lo), n_s - int(edges[-1] != hi)
    cut = [p for p in range(n_s) if not p0 <= p < p1]
    n_whole = max(p1 - p0, 0)
    # the cut panels' columns, then the last whole panel's lag column
    cols = cut + ([p1 - 1] if n_whole else [])
    direct = factor_matrix(edges, keys, s_nodes[cols])
    n_c = len(cols)
    for j in range(len(keys)):
        block = out[:, j * n_s : (j + 1) * n_s]
        block[:, cut] = direct[:, j * n_c : j * n_c + len(cut)]
        if n_whole:
            # b[c, p] = tau(first + p - c): row c reads the lag vector from
            # lag first + p0 - c on, so the rows are its windows in reverse order
            lags = np.concatenate((np.zeros(n_whole - 1), direct[::-1, j * n_c + n_c - 1]))
            block[:, p0:p1] = sliding_window_view(lags, n_whole)[::-1]


# Gauss-Jacobi nodes of the far Gram's u-integral (see the module docstring)
_FAR_GRAM_NODES = 40


@lru_cache(maxsize=256)
def _far_root(far_left: float, keys: tuple) -> np.ndarray:
    """The r x (k R) latent root of the unit-horizon continuum far Gram,
    far edge -far_left, at the R points _CHEBYSHEV, k = len(keys)
    exponent blocks side by side: the eigenpairs of the Gram above the
    numerical-rank cut.  A horizon-t grid reads it at far_left = L/t and
    scales it (see the module docstring), so one entry serves every
    horizon with that ratio.  A pure function of its arguments, so it is
    cached by value; only the calling thread factorizes, and two callers
    racing on a cold key each build the same root."""
    s, n = _CHEBYSHEV, _FAR_NODES
    gram = np.empty((len(keys) * n, len(keys) * n))
    for a, ga in enumerate(keys):
        for b, gb in enumerate(keys[a:], start=a):
            # int_L^inf (s_i + y)^ga (s_j + y)^gb dy at u = L / y
            power = -2.0 - ga - gb
            x, w = gauss_jacobi(_FAR_GRAM_NODES, power)
            base = 1.0 + np.outer(0.5 * (1.0 + x), s / far_left)
            w = w * far_left ** (1.0 + ga + gb) * 0.5 ** (power + 1.0)
            block = (base**ga * w[:, None]).T @ base**gb
            gram[a * n : (a + 1) * n, b * n : (b + 1) * n] = block
            gram[b * n : (b + 1) * n, a * n : (a + 1) * n] = block.T
    lam, vec = np.linalg.eigh(gram)
    keep = lam > lam.size * np.finfo(float).eps * lam[-1]
    root = (vec[:, keep] * np.sqrt(lam[keep])).T
    root.flags.writeable = False
    return root


def _factorize(kernel: KernelSpec, grid: GridSpec, interval) -> _Estimator:
    """The factor table of _build_estimator's record; an empty interval
    has no s-node, so its table has no column."""
    if kernel.q > 4:
        raise SizeError(f"the sampler supports orders 1..4, got {kernel.q}")
    if grid.horizon != kernel.horizon:
        raise InvalidInputError(f"grid horizon {grid.horizon} differs from the kernel's {kernel.horizon}")
    lo, hi = _span(grid, interval)
    edges = grid.edges
    # the s-rule: one Gauss-Legendre node (the midpoint) per grid cell in
    # [lo, hi], cut at lo and hi, so every edge kink of b sits on a panel
    # end; a repeated cut is dropped, so lo == hi gives no panel at all
    cuts = np.concatenate(([lo], edges[(edges > lo) & (edges < hi)], [hi]))
    cuts = cuts[np.diff(cuts, prepend=-np.inf) > 0]
    s_nodes, s_w = 0.5 * (cuts[:-1] + cuts[1:]), np.diff(cuts)
    # the far field and its latent root depend on the grid alone, so every
    # interval reads the same root, scaled from the unit horizon by
    # t^(g+1/2) per exponent block and mapped to its own s-nodes
    n_live = int(np.searchsorted(edges[:-1], hi, side="left"))
    g = kernel.gamma.entries
    keys = tuple(sorted(set(g)))
    t = grid.horizon
    # keyed on the far edge's ratio to t from integers, not on far_left / t,
    # which rounds differently at some horizons and would build a second,
    # slightly rotated root
    ratio = (grid.n_cells - grid.cells) / grid.cells
    latent = _far_root(ratio, keys) * np.repeat(t ** (np.array(keys) + 0.5), _FAR_NODES)
    r, k, n_s = len(latent), len(keys), len(s_nodes)
    table = np.empty((r + n_live, k * n_s))
    interp = _chebyshev_interpolation(s_nodes / t)
    table[:r] = (latent.reshape(r * k, _FAR_NODES) @ interp).reshape(r, k * n_s)
    first = int(np.searchsorted(edges, lo, side="right")) - 1
    _near_rows(edges[: n_live + 1], keys, s_nodes, lo, hi, first, out=table[r:])
    return _Estimator((lo, hi), s_w, r, first, tuple(keys.index(v) for v in g), table)


def _takes_form(est: _Estimator) -> bool:
    """Whether a draw assembles its product terms through M: each has two
    unmatched factors, and the table is wider than tall, so xi @ M is
    narrower than xi @ table."""
    n, width = est.table.shape
    return bool(est.products) and all(len(slots) == 2 for slots, _ in est.products) and n < width


# rows per block row of M
_FORM_ROWS = 64


def _form_blocks(est: _Estimator):
    """M's upper block rows M[a:a+64, a:], a = 0, 64, ..., in order, M the
    n x n symmetric matrix of the Wick terms with two unmatched factors,
    n the table's rows; it leaves out the kernel constant, as the
    assembly does.  Each is the sum over those terms of (b_i diag(c)
    b_j^T + b_j diag(c) b_i^T) / 2 on its rows, over the s-panels from
    max(a - r - first, 0) on: near row c (grid cell c) is exactly 0 left
    of panel c - first, where b[c, p] = tau(first + p - c) has a negative
    lag, and the latent rows are dense, so the sums are M's own less
    exact zeros.  The diagonal square is H + H^T from one half H (numpy
    reads an overlapping operand as a copy), so M is exactly symmetric."""
    terms = [(0.5 * c, est.b(i), est.b(j)) for (i, j), c in est.products]
    n = len(est.table)
    for a in range(0, n, _FORM_ROWS):
        m, p = min(_FORM_ROWS, n - a), max(a - est.r - est.first, 0)
        block = reduce(np.add, [(x[a : a + m, p:] * h[p:]) @ y[a:, p:].T for h, x, y in terms])
        block[:, m:] += reduce(np.add, [(y[a : a + m, p:] * h[p:]) @ x[a + m :, p:].T for h, x, y in terms])
        block[:, :m] += block[:, :m].T
        yield block


def _block_sq(block: np.ndarray) -> float:
    """A block row's share of ||M||_F^2: the part right of its diagonal
    square counts twice, for its mirror below the diagonal."""
    diag, right = block[:, : len(block)], block[:, len(block) :]
    return float(np.einsum("ij,ij->", diag, diag)) + 2.0 * float(np.einsum("ij,ij->", right, right))


def _form(est: _Estimator) -> tuple:
    """(M, ||M||_F^2), M read-only, written from its block rows and their
    mirrors, the norm added up in the same pass."""
    n = len(est.table)
    form, form_sq = np.empty((n, n)), 0.0
    for block in _form_blocks(est):
        a = n - block.shape[1]
        form[a : a + len(block), a:], form[a:, a : a + len(block)] = block, block.T
        form_sq += _block_sq(block)
    form.flags.writeable = False
    return form, form_sq


def _form_sq(est: _Estimator) -> float:
    """||M||_F^2 from the same block rows as _form, the same bits, with no
    n x n array: one block row is alive at a time."""
    return sum(map(_block_sq, _form_blocks(est)))


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _ValueCache:
    """Values by a value key, up to `maxsize` entries, the least recently
    used dropped first.  A miss calls `build`, which makes the value from
    the caller's own inputs.  cache_info and cache_clear read as
    lru_cache's do; two callers racing on a cold key each build the same
    value."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self.cache_clear()

    def __call__(self, key: tuple, build):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
        value = build()
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries, self._hits, self._misses = OrderedDict(), 0, 0


# (M, ||M||_F^2) kept for the draws by (exponents, horizon, cells, span),
# and the noise rows of the last one-chunk draw by (seed, n_samples,
# width); see the module docstring
_FORM_ENTRIES = 8
_quadratic_form = _ValueCache(_FORM_ENTRIES)
_noise_memo = _ValueCache(1)


def _build_estimator(
    kernel: KernelSpec, grid: GridSpec, interval, moment: bool = False, cached: bool = False
) -> _Estimator:
    """The one construction path of the estimator record.  It builds the
    factor table; then, where `moment` asks for the second moment, whose
    scale is t^(2H) with H = 1 + sum(g) + q/2, raises DomainError if that
    leaves float64's normal range; then folds the Wick sum, and where
    _takes_form holds reads M and ||M||_F^2 through the draws' cache when
    `cached`, or else sums ||M||_F^2 alone over M's block rows."""
    est = _factorize(kernel, grid, interval)
    t, g = kernel.horizon, kernel.gamma.entries
    log_scale = (2.0 + 2.0 * sum(g) + len(g)) * math.log(t)
    if moment and not math.log(np.finfo(float).tiny) <= log_scale <= math.log(np.finfo(float).max):
        raise DomainError(f"the second moment, of order t^(2H), leaves float64's normal range at horizon {t}")

    def cov(i: int, j: int) -> np.ndarray:
        """C_ij(m) = sum_c b_i[c, m] b_j[c, m] over the table's rows."""
        return np.einsum("cm,cm->m", est.b(est.slot[i]), est.b(est.slot[j]))

    # each matching's s-weights and covariances form one vector over the
    # s-nodes, which multiplies its unmatched factors
    const, folded, products = 0.0, np.zeros(len(est.table)), []
    for pairs, free in _matchings(tuple(range(kernel.q))):
        c = reduce(np.multiply, [cov(i, j) for i, j in pairs], (-1.0) ** len(pairs) * est.s_w)
        if not free:
            const += float(c.sum())
        elif len(free) == 1:
            folded += est.b(est.slot[free[0]]) @ c
        else:
            products.append(([est.slot[i] for i in free], c))
    est = est._replace(const=const, folded=folded, products=products)
    if not _takes_form(est):
        return est
    if cached:
        form, form_sq = _quadratic_form((g, grid.horizon, grid.cells, est.span), partial(_form, est))
        return est._replace(form=form, form_sq=form_sq)
    return est._replace(form_sq=_form_sq(est))


def _permanent_moment(kernel: KernelSpec, est: _Estimator) -> float:
    """E[Z_hat^2] = A^2 w^T perm(G) w from one Gram over the table's rows,
    whose exponent blocks are the G_ij: the route for every order, and
    the one _second_moment takes where the fold does not give it."""
    n_s, k = len(est.s_w), len(set(est.slot))
    gram = (est.table.T @ est.table).reshape(k, n_s, k, n_s)
    grams_by_slot = [[gram[a, :, b] for b in est.slot] for a in est.slot]
    return float(kernel.constant**2 * (est.s_w @ permanent(grams_by_slot) @ est.s_w))


def _second_moment(kernel: KernelSpec, est: _Estimator) -> float:
    """E[Z_hat^2] of a record built with `moment`.  Where no Wick term has
    three or more unmatched factors and every product term folds into M
    (the record holds M), it is A^2 (|folded|^2 + 2 ||M||_F^2); elsewhere
    it is the permanent.  A nonempty interval whose second moment falls
    below float64's normal range, as one much shorter than a cell can,
    raises DomainError."""
    if not est.products or est.form_sq is not None:
        spread = 2.0 * est.form_sq if est.products else 0.0
        m2 = float(kernel.constant**2 * (est.folded @ est.folded + spread))
    else:
        m2 = _permanent_moment(kernel, est)
    if len(est.s_w) and m2 < np.finfo(float).tiny:
        raise DomainError(f"the second moment over the interval {est.span} falls below float64's normal range")
    return m2


def discrete_second_moment(kernel: KernelSpec, grid: GridSpec, interval=None) -> float:
    """Exact E[Z_hat^2] of the sampled estimator on this grid.

    Wick products of Gaussians pair only across the two factors, so the
    second moment is the permanent of the matrix of s-node Grams, with
    entrywise products.  Where the draw folds the estimator into a
    vector and a quadratic form M (q = 1, and q = 2 with a table wider
    than tall), the same sum is A^2 (|folded|^2 + 2 ||M||_F^2), and
    ||M||_F^2 is summed here over M's 64-row block rows, built one at a
    time from this call's own table: no k S x k S Gram (910^2 doubles on
    the default q=2 grid), no M and no n x S scaled copy of the table, so
    beside the table the call holds well under 1 MB there, and the draws'
    cache of M is neither read nor filled.  No Monte Carlo, no continuum
    approximation: this is the estimator's own variance to float
    precision, and a draw's second moment, summed over the same blocks,
    is the same bits.
    """
    return _second_moment(kernel, _build_estimator(kernel, grid, interval, moment=True))


@dataclass(eq=False)
class ChaosSampleBatch:
    """Realizations of one chaos functional plus the exact bookkeeping
    needed to interpret them (grid, kernel, discrete second moment, None
    where the draw did not compute it; JSON null in `meta`)."""

    values: np.ndarray
    seed: int
    kernel: KernelSpec
    grid: GridSpec
    interval: tuple
    second_moment: float | None
    brownian: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.values)

    def meta(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "kernel": self.kernel.to_dict(),
            "grid": self.grid.to_dict(),
            "interval": [self.interval[0], self.interval[1]],
            "second_moment": self.second_moment,
            "version": __version__,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.meta(), sort_keys=True, separators=(",", ":"), allow_nan=False)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# realizations per noise stream, and per chunk of work
_BLOCK = 64
_CHUNK = 4 * _BLOCK


def _noise(streams: list, start: int, stop: int, width: int) -> np.ndarray:
    """Noise rows of realizations start..stop-1, `start` a multiple of
    _BLOCK: realization k is row k % _BLOCK of
    Generator(SFC64(streams[k // _BLOCK])) filled as (rows, width)."""
    rows = np.empty((stop - start, width))
    for first in range(start, stop, _BLOCK):
        gen = np.random.Generator(np.random.SFC64(streams[first // _BLOCK]))
        gen.standard_normal(out=rows[first - start : min(stop, first + _BLOCK) - start])
    return rows


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sample_chaos(
    kernel: KernelSpec,
    grid: GridSpec,
    n_samples: int,
    seed: int,
    interval=None,
    return_brownian: bool = False,
    with_second_moment: bool = True,
) -> ChaosSampleBatch:
    """Draw exact realizations of the discretized chaos functional.

    `interval` restricts the time integral to [a, b] (default [0, horizon]),
    which is how process increments are sampled; the same seed with the
    same kernel and grid reuses the same underlying noise, so increments
    and Brownian values sampled with equal seeds are coupled pathwise.
    A degenerate interval a == b gives 0, with the same B(t) as any other
    interval; B(t) sums the grid's last `cells` cells, which tile [0, t].

    Chunks of 256 realizations are drawn and assembled in the calling
    thread when there is one chunk (n_samples <= 256) or one usable CPU,
    and otherwise on min(usable CPUs, number of chunks) pool threads; the
    values are the same bits either way.  "Workers" below counts the
    threads that draw, 1 in the first case.  The noise in flight takes
    about workers x 256 x (r + n_cells) x 8 bytes, r the latent rank
    (r + n_cells is 522 on the default q=2 grid, about 1 MB per worker),
    and for q >= 2 the projections workers x 256 x s-nodes x 8 bytes per
    distinct exponent.  A draw that assembles through the quadratic form
    M (see the module docstring) takes workers x 256 x (r + live cells) x
    8 bytes for xi @ M instead, and M itself, (r + live cells)^2 doubles,
    2.2 MB on the default q=2 grid, stays cached with its norm by its
    key, up to 8 of them; a cold call builds M from this call's table one
    64-row block row at a time, with no n x S scaled copy of the table.
    The second moment reads off the same fold, so at q = 1 and on the
    route through M it takes no k S x k S Gram (910^2 doubles, 6.6 MB, on
    the default q=2 grid), and on that route it reads the cached norm;
    elsewhere it takes the Gram.  A one-chunk draw keeps its noise rows,
    256 x (r + n_cells) x 8 bytes at most (1.07 MB on the default q=2
    grid), in a one-entry memo for the next same-seed one-chunk draw on
    the grid, which reads them instead of drawing (see the module
    docstring).  The far field's latent root, r x (distinct
    exponents) x 55 doubles (about 3 to 16 KB on the default grids), is
    built on the unit horizon and cached by the far edge over the horizon
    and the exponents, up to 256 of them, so later calls on any grid with
    that ratio, at any horizon, skip its build.  The second moment scales
    like t^(2H); outside float64's normal range it raises DomainError,
    as it does where a nonempty interval's falls below that range.  With
    `with_second_moment=False` it is not computed, and the batch's
    `second_moment` is None.
    """
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if _integer(value, name) < 0:
            raise InvalidInputError(f"{name} must be a nonnegative integer, got {value!r}")
    est = _build_estimator(kernel, grid, interval, moment=with_second_moment, cached=True)
    m2 = _second_moment(kernel, est) if with_second_moment else None

    # the last `cells` cells, [0, horizon], carry the terminal Brownian
    # value; the product runs over every cell column, zeros left of 0
    sqrt_w_pos = np.sqrt(grid.widths)
    sqrt_w_pos[: grid.n_cells - grid.cells] = 0.0
    n_s, k = len(est.s_w), len(set(est.slot))

    def assemble(xi: np.ndarray) -> np.ndarray:
        """The Wick sum over a noise row's live columns, without the
        kernel constant."""
        out = xi @ est.folded + est.const
        if est.form is not None:
            out += np.einsum("ij,ij->i", xi @ est.form, xi)
        elif est.products:
            proj = (xi @ est.table).reshape(len(xi), k, n_s)
            for slots, c in est.products:
                out += reduce(np.multiply, [proj[:, j] for j in slots]) @ c
        return out

    streams = np.random.SeedSequence(int(seed)).spawn(-(-n_samples // _BLOCK))
    values = np.empty(n_samples)
    brownian = np.empty(n_samples) if return_brownian else None

    width = est.r + grid.n_cells
    starts = range(0, n_samples, _CHUNK)

    def shared_rows() -> np.ndarray:
        rows = _noise(streams, 0, n_samples, width)
        rows.flags.writeable = False
        return rows

    def run_chunk(start: int) -> None:
        stop = min(start + _CHUNK, n_samples)
        if len(starts) == 1:
            xi = _noise_memo((int(seed), n_samples, width), shared_rows)
        else:
            xi = _noise(streams, start, stop, width)
        if return_brownian:
            brownian[start:stop] = xi[:, est.r :] @ sqrt_w_pos
        values[start:stop] = kernel.constant * assemble(xi[:, : len(est.table)])

    workers = min(_usable_cpus(), len(starts))
    # numpy's normal fill and BLAS release the GIL; each chunk writes only
    # its own slices, so the values do not depend on the worker count, and
    # one worker is the calling thread itself, with no pool to start
    if workers <= 1:
        for start in starts:
            run_chunk(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, starts))  # re-raises a chunk's exception
    return ChaosSampleBatch(
        values=values, seed=int(seed), kernel=kernel, grid=grid,
        interval=est.span, second_moment=m2, brownian=brownian,
    )


def sample_process_increment(
    kernel: KernelSpec,
    grid: GridSpec,
    span,
    n_samples: int,
    seed: int,
    **kwargs,
) -> ChaosSampleBatch:
    """Realizations of Z(b) - Z(a), coupled across calls sharing a seed."""
    return sample_chaos(kernel, grid, n_samples, seed, interval=span, **kwargs)


def save_npz(batch: ChaosSampleBatch, path) -> None:
    payload = {
        "values": batch.values,
        "meta": np.array(json.dumps(batch.meta(), sort_keys=True, allow_nan=False)),
        "hash": np.array(batch.content_hash()),
    }
    if batch.brownian is not None:
        payload["brownian"] = batch.brownian
    np.savez_compressed(path, **payload)


def load_npz(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        out = {
            "values": data["values"],
            "meta": json.loads(str(data["meta"])),
            "hash": str(data["hash"]),
        }
        if "brownian" in data:
            out["brownian"] = data["brownian"]
    return out
