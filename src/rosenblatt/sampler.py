"""Exact-in-distribution sampling of the chaos process on a grid.

The kernel is factorized: each coordinate i contributes a cell-averaged
factor b_i[c, m] over grid cells c and s-quadrature nodes m, so a
realization needs one standard normal per cell and a few matrix products.

Assembly.  The distinct-cell multiple sum is the Moebius sum over the
partition lattice of {0..q-1}: each partition contributes, with weight
prod_B (-1)^(|B|-1) (|B|-1)!, the product over its blocks B of the
projections xi^|B| @ prod_{i in B} b_i.  One loop over the lattice
assembles every order.  A projection is computed once per distinct
exponent multiset, and all blocks of one size go through one matrix
product.  The one-block term is linear in xi^q, so the s-weights fold into
it and it costs one mat-vec, xi^q @ (prod_i b_i @ s_w); for q = 1 that is
the whole estimator.

Far field.  For s in [lo, hi] and a cell whose right edge lies at least
L = hi - lo left of lo, every factor is analytic in s: in the interval's
[-1, 1] coordinates the nearest singularity sits at -3 or beyond, outside
the Bernstein ellipse of parameter rho = 3 + sqrt(8).  Chebyshev
interpolation in s therefore converges like rho^-R (Trefethen,
Approximation Theory and Approximation Practice, ch. 8), so those cells'
factors and block products are evaluated at R = _FAR_NODES Chebyshev
points and mapped to the s-nodes by an R x S barycentric matrix; R puts
rho^-R below 1e-16.  Against the dense assembly on the same noise the
values agree to within 4e-13 of their RMS, the level at which the
differenced edge powers of `factor_matrix` already round (more points do
not lower it).  Cells entirely right of hi have zero factors and are
skipped.  No cells x s-nodes matrix over the whole grid is formed.

The estimator's exact discrete second moment is available in closed form
via Gaussian pairings plus the same Moebius inversion.  It reads the same
near and far tables: each block Gram over the s-nodes is the near cells'
product plus the far cells' R x R product mapped by the interpolation
matrix on both sides.

Randomness: one child stream per realization, spawned from the master seed
with SeedSequence.spawn and drawn with Generator(SFC64(child)), so
realization k's noise is bit-identical no matter how the batch is chunked
or parallelized.  Assembled values are deterministic for a fixed chunk
size; across chunk sizes they agree to summation-order ulps (BLAS picks
shape-dependent reduction orders).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, SizeError
from .grid import GridSpec, check_tail_bound, s_rule
from .kernel import KernelSpec

__all__ = [
    "ChaosSampleBatch",
    "sample_chaos",
    "sample_process_increment",
    "discrete_second_moment",
    "save_npz",
    "load_npz",
]


def factor_matrix(edges: np.ndarray, g: float, s_nodes: np.ndarray) -> np.ndarray:
    """Cell-averaged, width-normalized kernel factor.

    b[c, m] = (integral of (s_m - x)_+^g over cell c) / (width_c) * sqrt(width_c),
    i.e. the coefficient multiplying a standard normal in the cell-c
    contribution.  Closed form via the antiderivative; edge powers are
    differenced directly (cell widths never shrink relative to the
    distance from s, so cancellation stays below ~1e-12 here).
    """
    p = g + 1.0
    d = s_nodes[None, :] - edges[:, None]  # (n_edges, S)
    powed = np.where(d > 0.0, d, 0.0) ** p
    diff = powed[:-1, :] - powed[1:, :]
    widths = np.diff(edges)
    return diff / (p * np.sqrt(widths))[:, None]


# Chebyshev points per far-field block: the smallest R with rho^-R < 1e-16,
# rho = 3 + sqrt(8) (see the module docstring).
_FAR_NODES = math.ceil(16.0 / math.log10(3.0 + math.sqrt(8.0)))


def _chebyshev_interpolation(lo: float, hi: float, s_nodes: np.ndarray):
    """Chebyshev points of the second kind on [lo, hi] and the R x S
    barycentric matrix taking values there to values at `s_nodes`."""
    j = np.arange(_FAR_NODES)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * j / (_FAR_NODES - 1))
    w = (-1.0) ** j
    w[[0, -1]] *= 0.5
    d = s_nodes[None, :] - nodes[:, None]
    hit = d == 0.0
    interp = w[:, None] / np.where(hit, 1.0, d)
    interp /= interp.sum(axis=0)
    exact = hit.any(axis=0)
    interp[:, exact] = hit[:, exact]
    return nodes, interp


def _set_partitions(items: tuple):
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield ((head,),) + part
        for k in range(len(part)):
            yield part[:k] + ((head,) + part[k],) + part[k + 1 :]


def _partitions_with_weight(q: int):
    """All set partitions of {0..q-1} with Moebius weight
    prod_B (-1)^(|B|-1) (|B|-1)!  (turns conflated sums into distinct sums)."""
    out = []
    for part in _set_partitions(tuple(range(q))):
        mu = 1.0
        for block in part:
            mu *= (-1.0) ** (len(block) - 1) * math.factorial(len(block) - 1)
        out.append((part, mu))
    return out


class _Factors(NamedTuple):
    """Block-product tables of one kernel on one grid and s-interval.

    near[k] (near cells x s-nodes) and far[k] (far cells x Chebyshev
    points) hold prod_{e in k} b_e for every exponent multiset k of a
    block; cells [0, n_far) are far, cells from n_live on lie right of hi.
    """

    s_w: np.ndarray
    interp: np.ndarray
    n_far: int
    n_live: int
    near: dict
    far: dict


def _factorize(kernel: KernelSpec, grid: GridSpec, interval) -> _Factors | None:
    """The factor tables both estimator paths read; None for an empty interval."""
    q = kernel.q
    if q > 3:
        raise SizeError(f"the sampler supports orders 1..3, got {q}")
    if interval is None:
        lo, hi, s_nodes, s_w = 0.0, grid.horizon, grid.s_nodes, grid.s_weights
    else:
        lo, hi = float(interval[0]), float(interval[1])
        if not (0.0 <= lo <= hi <= grid.horizon + 1e-12):
            raise InvalidInputError(f"interval {interval} not inside [0, {grid.horizon}]")
        if lo == hi:
            return None
        s_nodes, s_w = s_rule(lo, hi, grid.s_panels, grid.s_order)
    edges = grid.edges
    n_far = int(np.searchsorted(edges[1:], lo - (hi - lo), side="right"))
    n_live = int(np.searchsorted(edges[:-1], hi, side="left"))
    cheb, interp = _chebyshev_interpolation(lo, hi, s_nodes)
    g = kernel.gamma.entries
    near = {e: factor_matrix(edges[n_far : n_live + 1], e, s_nodes) for e in set(g)}
    far = {e: factor_matrix(edges[: n_far + 1], e, cheb) for e in set(g)}
    keys = {tuple(sorted(c)) for size in range(1, q + 1) for c in itertools.combinations(g, size)}
    return _Factors(
        s_w, interp, n_far, n_live,
        near={k: reduce(np.multiply, [near[e] for e in k]) for k in keys},
        far={k: reduce(np.multiply, [far[e] for e in k]) for k in keys},
    )


def _second_moment(kernel: KernelSpec, fac: _Factors) -> float:
    """E[Z_hat^2] from the factor tables; far Grams are formed in R x R."""
    g = kernel.gamma.entries
    grams: dict = {}

    def gram(left: tuple, right: tuple) -> np.ndarray:
        if (left, right) not in grams:
            far = fac.interp.T @ (fac.far[left].T @ fac.far[right]) @ fac.interp
            grams[left, right] = fac.near[left].T @ fac.near[right] + far
            grams[right, left] = grams[left, right].T
        return grams[left, right]

    total = 0.0
    parts = _partitions_with_weight(kernel.q)
    for sigma in itertools.permutations(range(kernel.q)):
        for part, mu in parts:
            m = reduce(np.multiply, [gram(tuple(sorted(g[i] for i in block)),
                                          tuple(sorted(g[sigma[i]] for i in block))) for block in part])
            total += mu * float(fac.s_w @ m @ fac.s_w)
    return kernel.constant**2 * total


def discrete_second_moment(kernel: KernelSpec, grid: GridSpec, interval=None) -> float:
    """Exact E[Z_hat^2] of the sampled estimator on this grid.

    Gaussian pairing between the two distinct-cell sums leaves one
    permutation sum; Moebius inversion turns each distinct sum into
    conflated block sums, and each block reduces to a Gram matrix over
    s-nodes.  No Monte Carlo, no continuum approximation: this is the
    estimator's own variance to float precision.
    """
    fac = _factorize(kernel, grid, interval)
    return 0.0 if fac is None else _second_moment(kernel, fac)


@dataclass(eq=False)
class ChaosSampleBatch:
    """Realizations of one chaos functional plus the exact bookkeeping
    needed to interpret them (grid, kernel, discrete second moment)."""

    values: np.ndarray
    seed: int
    kernel: KernelSpec
    grid: GridSpec
    interval: tuple
    second_moment: float
    tail_estimate: float
    brownian: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return float(np.mean(self.values)) if self.n else 0.0

    def variance(self) -> float:
        return float(np.var(self.values)) if self.n else 0.0

    def meta(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "kernel": self.kernel.to_dict(),
            "grid": self.grid.to_dict(),
            "interval": [self.interval[0], self.interval[1]],
            "second_moment": self.second_moment,
            "tail_estimate": self.tail_estimate,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.meta(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _chunk_normals(children, n_cells: int) -> np.ndarray:
    rows = np.empty((len(children), n_cells))
    for k, child in enumerate(children):
        np.random.Generator(np.random.SFC64(child)).standard_normal(out=rows[k])
    return rows


def sample_chaos(
    kernel: KernelSpec,
    grid: GridSpec,
    n_samples: int,
    seed: int,
    interval=None,
    return_brownian: bool = False,
    chunk_size: int = 512,
    with_second_moment: bool = True,
) -> ChaosSampleBatch:
    """Draw exact realizations of the discretized chaos functional.

    `interval` restricts the time integral to [a, b] (default [0, horizon]),
    which is how process increments are sampled; the same seed on the same
    grid reuses the same underlying noise, so functionals sampled with
    equal seeds are coupled pathwise.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 0:
        raise InvalidInputError(f"n_samples must be a nonnegative integer, got {n_samples!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size < 1:
        raise InvalidInputError(f"chunk_size must be a positive integer, got {chunk_size!r}")
    check_tail_bound(grid, kernel)

    fac = _factorize(kernel, grid, interval)
    lo, hi = (0.0, grid.horizon) if interval is None else (float(interval[0]), float(interval[1]))
    if fac is None:  # degenerate interval: the functional is 0
        return ChaosSampleBatch(
            values=np.zeros(n_samples), seed=int(seed), kernel=kernel, grid=grid,
            interval=(lo, hi), second_moment=0.0, tail_estimate=grid.tail_estimate,
            brownian=np.zeros(n_samples) if return_brownian else None,
        )

    q = kernel.q
    g = kernel.gamma.entries
    s_w, interp, n_far, n_live, near, far = fac
    terms = []
    for part, mu in _partitions_with_weight(q):
        keys = [tuple(sorted(g[i] for i in b)) for b in part]
        if len(part) == 1:
            whole, mu_whole = keys[0], mu
        else:
            terms.append((mu, keys))
    # blocks of size 1..q-1, one stacked table per size; the size-q block
    # only occurs alone and is folded with the s-weights into one vector
    stacks = []
    for size in range(1, q):
        keys = sorted({k for _, ks in terms for k in ks if len(k) == size})
        stacks.append((keys, np.hstack([near[k] for k in keys]), np.hstack([far[k] for k in keys])))
    folded = np.concatenate([far[whole] @ (interp @ s_w), near[whole] @ s_w])

    # cells inside [0, horizon] carry the terminal Brownian value
    sqrt_w_pos = np.sqrt(grid.widths) * (grid.edges[:-1] >= -1e-12)

    n_s = len(s_w)
    # powers of the noise go to one reused buffer, not to per-chunk temporaries
    buf = np.empty((min(chunk_size, n_samples), n_live)) if q > 1 else None

    def assemble(xi: np.ndarray) -> np.ndarray:
        """Moebius sum over the live cells, without the constant."""
        m = len(xi)
        power = xi
        proj = {}
        for size, (keys, b_near, b_far) in enumerate(stacks, start=1):
            if size > 1:
                power = np.multiply(power, xi, out=buf[:m])
            k = len(keys)
            p_far = (power[:, :n_far] @ b_far).reshape(m * k, _FAR_NODES) @ interp
            p = (power[:, n_far:] @ b_near).reshape(m, k, n_s) + p_far.reshape(m, k, n_s)
            proj.update((key, p[:, j]) for j, key in enumerate(keys))
        acc = np.zeros((m, n_s))
        for mu, keys in terms:
            acc += mu * reduce(np.multiply, [proj[k] for k in keys])
        if q > 1:
            power = np.multiply(power, xi, out=buf[:m])
        return acc @ s_w + mu_whole * (power @ folded)

    children = np.random.SeedSequence(int(seed)).spawn(n_samples)
    values = np.empty(n_samples)
    brownian = np.empty(n_samples) if return_brownian else None
    for start in range(0, n_samples, chunk_size):
        stop = min(start + chunk_size, n_samples)
        xi = _chunk_normals(children[start:stop], grid.n_cells)
        values[start:stop] = kernel.constant * assemble(xi[:, :n_live])
        if return_brownian:
            brownian[start:stop] = xi @ sqrt_w_pos
        del xi  # free this chunk's noise before the next one is drawn

    m2 = _second_moment(kernel, fac) if with_second_moment else math.nan
    return ChaosSampleBatch(
        values=values, seed=int(seed), kernel=kernel, grid=grid,
        interval=(lo, hi), second_moment=m2,
        tail_estimate=grid.tail_estimate, brownian=brownian,
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
    a, b = float(span[0]), float(span[1])
    if not (0.0 <= a <= b <= kernel.horizon + 1e-12):
        raise InvalidInputError(f"span {span} not inside [0, {kernel.horizon}]")
    return sample_chaos(kernel, grid, n_samples, seed, interval=(a, b), **kwargs)


def save_npz(batch: ChaosSampleBatch, path) -> None:
    payload = {
        "values": batch.values,
        "meta": np.array(json.dumps(batch.meta(), sort_keys=True)),
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
