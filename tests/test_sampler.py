"""Sampler tests: exact second-moment engine against the independent
Wick/Isserlis oracle on tiny grids, Monte Carlo moments, reproducibility,
increment coupling, and NPZ serialization."""
import json
import math
import re
import sys
import threading

import mpmath
import numpy as np
import pytest

import rosenblatt
import rosenblatt.sampler as sampler_module
import wick_oracle
from rosenblatt.domain import BoundaryPath, Face, GammaVector, path_points
from rosenblatt.errors import DomainError, InvalidInputError, SizeError
from rosenblatt.grid import GridSpec, build_grid
from rosenblatt.kernel import KernelSpec
from rosenblatt.sampler import (
    _FAR_NODES,
    _FORM_ENTRIES,
    ChaosSampleBatch,
    _build_estimator,
    _factorize,
    _far_root,
    _form,
    _noise,
    _permanent_moment,
    _quadratic_form,
    _span,
    discrete_second_moment,
    factor_matrix,
    load_npz,
    sample_chaos,
    sample_process_increment,
    save_npz,
)
from wick_oracle import hermite_expression, wick_moment

from helpers import (
    cell_s_rule,
    dense_chaos_reference,
    dense_factors,
    dense_second_moment_reference,
    evaluate_expression,
    far_gram_quadrature,
    far_rows,
    gram_sum_reference,
    tiny_hat_tensor,
    wick_sum_reference,
)


def noise_rows(seed, n, ker, grid):
    # the noise rows sample_chaos draws for realizations 0..n-1: r latent
    # normals, then one normal per grid cell
    fac = _factorize(ker, grid, None)
    return _noise(np.random.SeedSequence(seed).spawn(math.ceil(n / 64)), 0, n, fac.r + grid.n_cells)


def latent_gram_error(ker, grid, interval, n_nodes=12):
    # the far projections are drawn as eta @ table[:r], eta standard
    # normal, so their law is right when the latent rows' Gram equals the
    # continuum far Gram at the s-nodes, from the quadrature oracle; at
    # n_nodes s-nodes spread over the interval (all of them when fewer),
    # the error relative to that Gram's largest entry
    fac = _factorize(ker, grid, interval)
    nodes, _ = cell_s_rule(grid, interval)
    keys = tuple(sorted(set(ker.gamma.entries)))
    pick = np.unique(np.linspace(0, len(nodes) - 1, n_nodes).round().astype(int))
    cols = np.concatenate([j * len(nodes) + pick for j in range(len(keys))])
    latent = fac.table[: fac.r, cols]
    gram = far_gram_quadrature(keys, grid.far_left, tuple(nodes[pick]))
    return np.max(np.abs(latent.T @ latent - gram)) / np.max(np.abs(gram))


def wick_oracle_m2(ker, grid):
    # E[Z_hat^2] by the Wick oracle, the far field entering as the
    # quadrature oracle's latent columns; those are cut at 1e-11 of the
    # largest eigenvalue, which keeps the q=4 tensor at the oracle's 10^4
    # tuples and moves its m2 by 1.0e-12 relative
    nodes, _ = cell_s_rule(grid)
    far = far_rows(sorted(set(ker.gamma.entries)), grid.far_left, grid.horizon, nodes, rtol=1e-11)
    h = grid.widths[0]
    return wick_moment(hermite_expression(tiny_hat_tensor(ker, grid, far), h) ** 2, h)


def variance_se(values):
    # standard error of the sample variance from the sample's own m4
    v = np.asarray(values)
    var = np.var(v)
    m4 = np.mean((v - v.mean()) ** 4)
    return var, math.sqrt(max(m4 - var**2, 0.0) / len(v))


class TestExactEngineVsWickOracle:
    # the Gram engine and the matching-enumeration oracle share no code;
    # the oracle's Hermite-complete sum is the estimator's exact form
    def test_q2_tiny_grid_exact(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = GridSpec(1.0, 4)
        oracle = wick_oracle_m2(ker, grid)
        engine = discrete_second_moment(ker, grid)
        assert engine == pytest.approx(oracle, rel=1e-10)

    def test_q3_tiny_grid_exact(self):
        ker = KernelSpec((-0.55, -0.6, -0.65))
        grid = GridSpec(1.0, 3)
        oracle = wick_oracle_m2(ker, grid)
        engine = discrete_second_moment(ker, grid)
        assert engine == pytest.approx(oracle, rel=1e-10)

    def test_q4_tiny_grid_exact(self):
        # 2 cells on [0, 1] make 3 in all and leave 6 far columns, so the
        # q=4 tensor stays within the oracle's 10^4 tuples
        ker = KernelSpec((-0.55, -0.6, -0.6, -0.65))
        grid = GridSpec(1.0, 2)
        oracle = wick_oracle_m2(ker, grid)
        engine = discrete_second_moment(ker, grid)
        assert engine == pytest.approx(oracle, rel=1e-10)

    def test_q1_norm_identity(self):
        # for q=1 the second moment is just the squared norm of the
        # discretized kernel; reassemble it directly from factor columns,
        # the far field's from the quadrature oracle
        ker = KernelSpec((-0.6,))
        grid = GridSpec(1.0, 5)
        _, weights, (b,) = dense_factors(ker, grid)
        direct = ker.constant**2 * float(np.sum((b @ weights) ** 2))
        assert discrete_second_moment(ker, grid) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("gamma", [
        (-0.6, -0.7), (-0.55, -0.6, -0.65), (-0.55, -0.6, -0.6, -0.65),
    ])
    def test_pathwise_equals_hermite_expression(self, gamma, monkeypatch):
        # each realization is the oracle polynomial evaluated at its
        # increments sqrt(h) xi, the far field entering through the
        # sampler's own latent rows, one column of variance h each.  At
        # q=4 the r + 8 columns make (r + 8)^4 > 10^4 tuples, so the cap
        # that bounds the oracle's cost is raised to the tensor's size
        ker = KernelSpec(gamma)
        grid = GridSpec(1.0, 5)
        h = grid.widths[0]
        batch = sample_chaos(ker, grid, 50, seed=8, with_second_moment=False)
        xi = noise_rows(8, 50, ker, grid)
        fac = _factorize(ker, grid, None)
        assert xi.shape[1] == fac.r + grid.n_cells
        monkeypatch.setattr(wick_oracle, "MAX_TUPLES", max(wick_oracle.MAX_TUPLES, xi.shape[1] ** ker.q))
        f_hat = tiny_hat_tensor(ker, grid, fac.table[: fac.r])
        oracle = evaluate_expression(hermite_expression(f_hat, h), np.sqrt(h) * xi)
        assert np.max(np.abs(batch.values - oracle)) <= 1e-12 * np.sqrt(np.mean(oracle**2))


def far_gram_entry_closed_form(ga, gb, si, sj, far_left):
    # int_L^inf (s_i + y)^ga (s_j + y)^gb dy in 30 digits: with c = L + s_j
    # and w = c / (s_j + y) it is c^(1+ga+gb) / B int_0^1 B w^(B-1)
    # (1 + (s_i - s_j) w / c)^ga dw, B = -1 - ga - gb, and Euler's
    # integral makes that 2F1(-ga, B; B + 1; -(s_i - s_j) / c)
    with mpmath.workdps(30):
        ga, gb = mpmath.mpf(ga), mpmath.mpf(gb)
        c, d = mpmath.mpf(far_left) + mpmath.mpf(sj), mpmath.mpf(si) - mpmath.mpf(sj)
        big_b = -1 - ga - gb
        return float(c ** (-big_b) / big_b * mpmath.hyp2f1(-ga, big_b, big_b + 1, -d / c))


class TestFarGramOracle:
    # the quadrature oracle the latent rows are checked against, itself
    # against mpmath's hypergeometric function, at the nearest far edge the
    # grid allows, t/8, and at t/2; exponent sums down to -1.9998 and up to
    # -1.0002
    @pytest.mark.parametrize("keys", [(-0.7, -0.65), (-0.7, -0.5001), (-0.9999, -0.5001), (-0.65, -0.6, -0.55)])
    @pytest.mark.parametrize("horizon", [1.0, 2.5])
    @pytest.mark.parametrize("ratio", [0.125, 0.5])
    def test_far_gram_quadrature_against_hypergeometric(self, keys, horizon, ratio):
        nodes = (0.0, 0.3 * horizon, horizon)
        far_left = ratio * horizon
        got = far_gram_quadrature(keys, far_left, nodes)
        cols = [(g, s) for g in keys for s in nodes]
        want = np.array([[far_gram_entry_closed_form(ga, gb, si, sj, far_left) for gb, sj in cols]
                         for ga, si in cols])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-14


GAMMAS = [(-0.8,), (-0.7, -0.65), (-0.7, -0.7), (-0.7, -0.65, -0.6), (-0.65, -0.65, -0.6)]
INTERVALS = [None, (0.0, 0.25), (0.75, 1.0)]
# the (kernel, interval) pairs of the lists above whose default-grid draws
# assemble through the quadratic form M: q = 2 with unequal exponents and
# a table wider than tall, 522 rows and 910 columns on the whole interval
# and 181 and 228 on (0, 0.25); (0.75, 1) has 522 rows and 228 columns
FORM_CASES = {((-0.7, -0.65), None), ((-0.7, -0.65), (0.0, 0.25))}


def takes_form(ker, grid, interval) -> bool:
    # the record holds M exactly where the draw assembles through it
    return _build_estimator(ker, grid, interval).form is not None


class TestAssemblyVsDenseReference:
    # the second moment against the dense Gram engine, its far field from
    # the quadrature oracle, everywhere; the grouped, folded assembly
    # against the plain Wick sum over the same noise rows: the sampler's
    # latent rows, whose Gram is checked against the oracle's, and the
    # dense factor matrices of every cell
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("interval", INTERVALS)
    @pytest.mark.parametrize("default_grid", [True, False])
    def test_matches_dense_reference(self, gamma, interval, default_grid):
        ker = KernelSpec(gamma)
        grid = build_grid(ker) if default_grid else GridSpec(1.0, 4)
        n, seed = 64, 31
        batch = sample_chaos(ker, grid, n, seed, interval=interval)
        if not default_grid:
            xi = noise_rows(seed, n, ker, grid)
            fac = _factorize(ker, grid, interval)
            ref = dense_chaos_reference(ker, grid, xi, fac.table[: fac.r], interval)
            assert np.max(np.abs(batch.values - ref)) <= 1e-12 * np.sqrt(np.mean(ref**2))
        m2_ref = dense_second_moment_reference(ker, grid, interval)
        assert batch.second_moment == pytest.approx(m2_ref, rel=1e-13, abs=0.0)
        assert batch.second_moment == discrete_second_moment(ker, grid, interval)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_latent_rows_reproduce_far_gram(self, gamma, interval):
        # the Chebyshev points sit on [0, t] for every interval, so the
        # latent rows carry the far Gram at any s-nodes in [0, t]; the
        # rank is far below the root's width
        ker = KernelSpec(gamma)
        grid = build_grid(ker)
        fac = _factorize(ker, grid, interval)
        assert 0 < fac.r < len(set(gamma)) * _FAR_NODES
        assert latent_gram_error(ker, grid, interval) <= 1e-13

    @pytest.mark.parametrize("gamma, horizon, cells", [
        ((-0.5001,), 1.0, None), ((-0.5001, -0.7), 1.0, None), ((-0.5001, -0.65, -0.6), 1.0, None),
        ((-0.5001, -0.7), 1.0, 14), ((-0.7, -0.65), 2.5, 57),
        ((-0.5001, -0.7), 1.0, 16), ((-0.7, -0.65, -0.6), 2.5, 40),
    ])
    def test_latent_rows_match_the_oracle_near_face_one(self, gamma, horizon, cells):
        # at g1 = -0.5001 the far Gram's weight exponent -2 - 2 g1 is
        # -0.9998, and the far field carries most of the variance; on
        # cells=16 and 40 the far edge is -t/8 itself, the nearest
        # singularity the Chebyshev count allows for
        ker = KernelSpec(gamma, horizon=horizon)
        grid = build_grid(ker, cells=cells)
        for interval in (None, (0.3 * horizon, 0.31 * horizon)):
            assert latent_gram_error(ker, grid, interval) <= 1e-13

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_latent_assembly_matches_wick_sum(self, gamma, interval):
        # the noise row is [eta, xi over every cell]; the grouped, folded
        # assembly against the plain Wick sum over the same columns: the
        # latent rows, then the dense factors of every cell; the second
        # moment against the plain Gram engine over the same columns
        ker = KernelSpec(gamma)
        grid = build_grid(ker)
        assert takes_form(ker, grid, interval) == ((gamma, interval) in FORM_CASES)
        fac = _factorize(ker, grid, interval)
        _, weights, b = dense_factors(ker, grid, interval, fac.table[: fac.r])
        n, seed = 64, 31
        xi = noise_rows(seed, n, ker, grid)
        ref = wick_sum_reference(ker, b, weights, xi)
        batch = sample_chaos(ker, grid, n, seed, interval=interval, with_second_moment=False)
        assert np.max(np.abs(batch.values - ref)) <= 1e-12 * np.sqrt(np.mean(ref**2))
        m2 = discrete_second_moment(ker, grid, interval)
        assert m2 == pytest.approx(gram_sum_reference(ker, b, weights), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_sub_intervals_share_the_latent_rows(self, gamma):
        # the far field and its root depend on the grid alone, so a
        # sub-interval's latent rows, at the s-nodes it shares with the
        # full interval, are the full interval's; GEMMs of different widths
        # round differently, so the match is to rounding, not bitwise
        ker = KernelSpec(gamma)
        grid = build_grid(ker)
        full = _factorize(ker, grid, None)
        k = len(set(gamma))
        rows = full.table[: full.r].reshape(full.r, k, -1)
        nodes, _ = cell_s_rule(grid)
        for interval in INTERVALS[1:]:
            sub = _factorize(ker, grid, interval)
            assert sub.r == full.r
            shared, at_full, at_sub = np.intersect1d(nodes, cell_s_rule(grid, interval)[0], return_indices=True)
            assert len(shared) > 0
            sub_rows = sub.table[: sub.r].reshape(sub.r, k, -1)[:, :, at_sub]
            full_rows = rows[:, :, at_full]
            assert np.max(np.abs(sub_rows - full_rows)) <= 1e-14 * np.max(np.abs(full_rows))

    def test_s_node_on_a_chebyshev_point(self):
        # one cell on [0, 1] puts its s-node at 1/2, which is also the
        # middle Chebyshev point of the far-field interpolation, where the
        # barycentric weights would divide by zero
        ker = KernelSpec((-0.7, -0.65))
        grid = GridSpec(1.0, 1)
        fac = _factorize(ker, grid, None)
        assert 0 < fac.r < len(set(ker.gamma.entries)) * _FAR_NODES
        assert latent_gram_error(ker, grid, None) <= 1e-13
        batch = sample_chaos(ker, grid, 32, 3, with_second_moment=False)
        assert np.all(np.isfinite(batch.values))

    @pytest.mark.parametrize("keys", [(-0.8,), (-0.7, -0.65), (-0.7, -0.65, -0.6), (-0.7, -0.5001),
                                      (-0.65, -0.6, -0.5001), (-0.9999, -0.5001)])
    def test_far_gram_nodes_suffice_at_the_nearest_edge(self, keys, monkeypatch):
        # at L/t = 1/8 the u-integrand's singularity sits at u = -1/8, the
        # nearest the grid allows; doubling the Gauss-Jacobi nodes moves
        # the root's Gram by rounding only
        grams = []
        try:
            for n in (40, 80):
                monkeypatch.setattr(sampler_module, "_FAR_GRAM_NODES", n)
                _far_root.cache_clear()
                root = _far_root(0.125, keys)
                grams.append(root.T @ root)
        finally:
            _far_root.cache_clear()
        assert np.max(np.abs(grams[0] - grams[1])) <= 1e-14 * np.max(np.abs(grams[1]))


def near_rows(ker, grid, interval):
    # the near rows of the table, built by lag, and factor_matrix evaluated
    # directly over the same cells and s-nodes, as (cells, exponents, nodes)
    fac = _factorize(ker, grid, interval)
    nodes, _ = cell_s_rule(grid, interval)
    hi = grid.horizon if interval is None else interval[1]
    n_live = int(np.searchsorted(grid.edges[:-1], hi, side="left"))
    keys = sorted(set(ker.gamma.entries))
    direct = factor_matrix(grid.edges[: n_live + 1], keys, nodes).reshape(-1, len(keys), len(nodes))
    return fac.table[fac.r :].reshape(direct.shape), direct


class TestNearTable:
    # the near rows are built from one lag vector per exponent, with only
    # the cut panels evaluated directly; on the default grids at t = 1 and
    # on the horizon-2 grid of 18 cells, width 1/9, GridSpec(2.0, 18)
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("horizon, cells, interval", [
        *((1.0, None, interval) for interval in INTERVALS + [(0.3, 0.31)]), (2.0, 18, (0.3, 1.7))])
    def test_near_rows_match_factor_matrix(self, gamma, horizon, cells, interval):
        # (0.3, 0.31) is cut at both ends; (0.75, 1) at its left end; at
        # t = 2, (0.3, 1.7) cuts both end panels of 14 and builds the 12
        # whole ones between by lag; the largest error in each exponent
        # block relative to that block's largest entry
        ker = KernelSpec(gamma, horizon=horizon)
        near, direct = near_rows(ker, build_grid(ker, cells=cells), interval)
        err = np.max(np.abs(near - direct), axis=(0, 2)) / np.max(np.abs(direct), axis=(0, 2))
        assert np.max(err) <= 1e-13

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("horizon, cells", [(1.0, None), (2.0, 18)])
    def test_no_whole_panel_is_factor_matrix_bit_for_bit(self, gamma, horizon, cells):
        # with no whole panel every column is a cut panel's, evaluated
        # directly: (0.6, 0.6001) and (0.3, 0.3001) lie inside one cell of
        # width 1/455 (1/114 at q=3; 1/9 at t = 2), the second cut at both
        # ends, and the last interval holds the two cut panels on either
        # side of one edge
        ker = KernelSpec(gamma, horizon=horizon)
        grid = build_grid(ker, cells=cells)
        edge, h = grid.edges[-grid.cells // 3], grid.widths[-1]
        for interval, n_panels in (((0.6, 0.6001), 1), ((0.3, 0.3001), 1), ((edge - h / 3, edge + h / 4), 2)):
            near, direct = near_rows(ker, grid, interval)
            assert direct.shape[2] == n_panels
            assert np.array_equal(near, direct)


class TestSampleMoments:
    def test_q2_tiny_grid_second_moment_vs_oracle(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = GridSpec(1.0, 4)
        oracle = wick_oracle_m2(ker, grid)
        batch = sample_chaos(ker, grid, 40000, seed=7)
        var, se = variance_se(batch.values)
        m2 = float(np.mean(batch.values**2))
        assert abs(m2 - oracle) < 4 * se

    def test_q3_tiny_grid_second_moment_vs_oracle(self):
        ker = KernelSpec((-0.55, -0.6, -0.65))
        grid = GridSpec(1.0, 3)
        oracle = wick_oracle_m2(ker, grid)
        batch = sample_chaos(ker, grid, 20000, seed=11)
        _, se = variance_se(batch.values)
        m2 = float(np.mean(batch.values**2))
        assert abs(m2 - oracle) < 4 * se

    def test_q1_mean_and_variance(self):
        # linear Gaussian functional: mean 0, variance = discrete norm
        ker = KernelSpec((-0.6,))
        grid = build_grid(ker, cells=28)
        batch = sample_chaos(ker, grid, 100_000, seed=3)
        target = batch.second_moment
        var, se = variance_se(batch.values)
        assert abs(var - target) < 4 * se
        mean_se = np.std(batch.values) / math.sqrt(batch.n)
        assert abs(np.mean(batch.values)) < 4 * mean_se

    def test_mean_zero_q2_q3(self):
        for gamma, m in [((-0.6, -0.7), 20000), ((-0.55, -0.6, -0.65), 10000)]:
            ker = KernelSpec(gamma)
            grid = GridSpec(1.0, 4)
            batch = sample_chaos(ker, grid, m, seed=19)
            mean_se = np.std(batch.values) / math.sqrt(m)
            assert abs(np.mean(batch.values)) < 4 * mean_se

    def test_sample_variance_matches_engine_on_default_grid(self):
        # end-to-end: MC variance vs the exact engine on a real grid
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, cells=114)
        batch = sample_chaos(ker, grid, 8000, seed=123)
        var, se = variance_se(batch.values)
        assert abs(var - batch.second_moment) < 4 * se

    def test_order_three_sample_variance_matches_engine_on_default_grid(self):
        # the same at q=3, where the far field enters through the latent
        # projections and not only through the folded mat-vec
        ker = KernelSpec((-0.7, -0.65, -0.6))
        grid = build_grid(ker, cells=114)
        batch = sample_chaos(ker, grid, 8000, seed=123)
        var, se = variance_se(batch.values)
        assert abs(var - batch.second_moment) < 4 * se


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = GridSpec(1.0, 4)
        a = sample_chaos(ker, grid, 500, seed=42)
        b = sample_chaos(ker, grid, 500, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_worker_count_bit_identical(self, monkeypatch):
        # each chunk is drawn and assembled alone and writes only its own
        # slices, so 1, 2 or 3 workers (more than the cores of a small
        # host) give the same bits; 800 realizations make 4 chunks of at
        # most 256, and a short switch interval makes the threads
        # interleave often.  The last two cases assemble through M.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for gamma, cells, interval, form in [((-0.6,), 4, None, False), ((-0.6, -0.7), 4, (0.75, 1.0), False),
                                                 ((-0.7, -0.65, -0.6), 4, (0.75, 1.0), False),
                                                 ((-0.7, -0.65), None, None, True),
                                                 ((-0.7, -0.65), None, (0.0, 0.25), True)]:
                ker = KernelSpec(gamma)
                grid = build_grid(ker, cells=cells)
                assert takes_form(ker, grid, interval) == form
                runs = []
                for workers in (1, 2, 3):
                    monkeypatch.setattr(sampler_module, "_usable_cpus", lambda w=workers: w)
                    runs.append(sample_chaos(ker, grid, 800, seed=17, interval=interval,
                                             return_brownian=True, with_second_moment=False))
                for run in runs[1:]:
                    assert np.array_equal(run.values, runs[0].values)
                    assert np.array_equal(run.brownian, runs[0].brownian)
        finally:
            sys.setswitchinterval(switch)

    def test_noise_streams_chunk_invariant_bitwise(self):
        # drawing the rows in pieces split at block edges, as the chunks
        # do, gives the rows of one fill
        streams = np.random.SeedSequence(9).spawn(3)
        whole = _noise(streams, 0, 150, 50)
        parts = np.vstack([_noise(streams, 0, 64, 50), _noise(streams, 64, 128, 50),
                           _noise(streams, 128, 150, 50)])
        assert np.array_equal(whole, parts)

    def test_noise_stream_is_sfc64_per_block(self):
        # pins the generator and the layout: replacing either changes every
        # same-seed value.  Realization k is row k % 64 of block k // 64's
        # (rows, width) fill; the last block draws only the rows needed.
        n, width, seed = 150, 40, 2024
        streams = np.random.SeedSequence(seed).spawn(3)
        rows = _noise(streams, 0, n, width)
        for b, start in enumerate(range(0, n, 64)):
            fill = np.random.Generator(np.random.SFC64(streams[b])).standard_normal(
                (min(64, n - start), width))
            assert np.array_equal(rows[start : start + 64], fill)

    @pytest.mark.parametrize("gamma, cells, interval, n_long, n_short, form", [
        ((-0.6,), 4, None, 100, 40, False),
        ((-0.7, -0.65), None, None, 2048, 300, True),
    ])
    def test_prefix_stability(self, gamma, cells, interval, n_long, n_short, form):
        # first k realizations of a longer batch equal the shorter batch;
        # at 300 the last chunk has 44 rows, against 256 in the longer one.
        # Bit equality across chunk heights is the BLAS's, not the
        # sampler's: with two BLAS threads the 181-row (0, 0.25) products
        # differ by an ulp between 44 and 256 rows on either route
        ker = KernelSpec(gamma)
        grid = build_grid(ker, cells=cells)
        assert takes_form(ker, grid, interval) == form
        a = sample_chaos(ker, grid, n_long, seed=5, interval=interval, with_second_moment=False)
        b = sample_chaos(ker, grid, n_short, seed=5, interval=interval, with_second_moment=False)
        assert np.array_equal(a.values[:n_short], b.values)

    def test_different_seeds_differ(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = GridSpec(1.0, 4)
        a = sample_chaos(ker, grid, 100, seed=1)
        b = sample_chaos(ker, grid, 100, seed=2)
        assert not np.allclose(a.values, b.values)


def memo_draw(ker, grid, interval, seed=12):
    return sample_chaos(ker, grid, 70, seed, interval=interval, return_brownian=True, with_second_moment=False)


def assert_same_bits(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.brownian, b.brownian)


class TestFarRootMemo:
    # the far field's latent root is a pure function of the far edge over
    # the horizon and the exponent set, cached by value; a cache hit must
    # give the bits of a cold build
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_warm_calls_match_a_fresh_grid(self, gamma, interval):
        # the first draw builds the root and the second reads it; the
        # cache is then emptied, so the second moment on a fresh grid
        # builds it again and that grid's draw reads it
        ker = KernelSpec(gamma)
        grid_a, grid_b = build_grid(ker), build_grid(ker)
        _far_root.cache_clear()
        first, second = memo_draw(ker, grid_a, interval), memo_draw(ker, grid_a, interval)
        m2 = discrete_second_moment(ker, grid_a, interval)
        _far_root.cache_clear()
        m2_fresh = discrete_second_moment(ker, grid_b, interval)
        fresh = memo_draw(ker, grid_b, interval)
        assert_same_bits(second, first)
        assert_same_bits(fresh, first)
        assert m2 == m2_fresh

    def test_the_key_holds_the_exponents(self):
        # one grid serves two exponent sets of the same horizon; each gets
        # the bits a cold build gives it
        built_for, other = KernelSpec((-0.7, -0.65)), KernelSpec((-0.7, -0.6))
        shared = build_grid(built_for)
        runs = [(ker, memo_draw(ker, shared, (0.75, 1.0)), discrete_second_moment(ker, shared))
                for ker in (built_for, other)]
        for ker, batch, m2 in runs:
            _far_root.cache_clear()
            assert_same_bits(batch, memo_draw(ker, build_grid(built_for), (0.75, 1.0)))
            assert m2 == discrete_second_moment(ker, shared)

    def test_the_key_is_the_far_edge_not_the_grid(self):
        # two grids with one far edge ratio L/t share one root, whatever
        # their cells: 24, 16 and 8 cells all cut at -t/8, and so does the
        # 8-cell grid at horizon 4, whose edges are the unit ones times 4
        # exactly; 3 cells cut at -t/3 and have their own root
        ker = KernelSpec((-0.7, -0.65))
        keys = (-0.7, -0.65)
        built, fine, coarse, other, wide = (build_grid(ker, cells=24), GridSpec(1.0, 16), GridSpec(1.0, 8),
                                            GridSpec(1.0, 3), GridSpec(4.0, 8))
        assert built.far_left == fine.far_left == coarse.far_left == wide.far_left / wide.horizon == 0.125
        assert other.far_left == pytest.approx(1.0 / 3.0, rel=1e-15)
        _far_root.cache_clear()
        sample_chaos(ker, built, 8, seed=1)
        sample_chaos(KernelSpec(keys, horizon=4.0), wide, 8, seed=1)
        sample_chaos(ker, fine, 8, seed=1)
        sample_chaos(ker, coarse, 8, seed=1)
        assert _far_root.cache_info().currsize == 1
        sample_chaos(ker, other, 8, seed=1)
        assert _far_root.cache_info().currsize == 2
        root = _far_root(0.125, keys)
        assert _far_root(1.0 / 3.0, keys) is not root
        assert not root.flags.writeable

    def test_one_root_for_every_horizon_of_one_mesh(self):
        # the key is the far edge's ratio to t from the cell counts; as
        # far_left / t it read one ulp off 57/455 at t = 17 and 1e100, and
        # each such key built a root of its own, rotated near the rank cut
        ker = KernelSpec((-0.7, -0.65))
        _far_root.cache_clear()
        for horizon in (1.0, 17.0, 1e100):
            horizon_ker = KernelSpec(ker.gamma.entries, horizon=horizon)
            sample_chaos(horizon_ker, build_grid(horizon_ker), 8, seed=1)
        assert _far_root.cache_info().currsize == 1

    def test_threads_on_a_cold_grid_match_a_serial_run(self):
        # three callers, more than the cores of a small host, race to build
        # the same root; each stores equal values, so every draw matches a
        # serial run
        ker = KernelSpec((-0.7, -0.65, -0.6))
        serial = [memo_draw(ker, build_grid(ker), interval) for interval in INTERVALS]
        grid = build_grid(ker)
        _far_root.cache_clear()
        start = threading.Barrier(len(INTERVALS), timeout=60)
        out = [None] * len(INTERVALS)

        def run(j):
            start.wait()
            out[j] = memo_draw(ker, grid, INTERVALS[j])

        threads = [threading.Thread(target=run, args=(j,)) for j in range(len(INTERVALS))]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        for got, want in zip(out, serial):
            assert_same_bits(got, want)


def form_entries() -> int:
    return _quadratic_form.cache_info().currsize


class TestQuadraticForm:
    # where the rule holds, a draw folds its two-factor terms into M and
    # assembles xi^T M xi - tr M; the table route is the reference, forced
    # by patching the rule, and M is cached by its value key
    @pytest.mark.parametrize("interval", [None, (0.0, 0.25)])
    def test_routes_agree_on_the_same_noise(self, interval, monkeypatch):
        ker = KernelSpec((-0.7, -0.65))
        grid = build_grid(ker)
        assert takes_form(ker, grid, interval)
        _quadratic_form.cache_clear()
        via_form = memo_draw(ker, grid, interval)
        assert form_entries() == 1
        monkeypatch.setattr(sampler_module, "_takes_form", lambda est: False)
        _quadratic_form.cache_clear()
        via_table = memo_draw(ker, grid, interval)
        assert form_entries() == 0
        rms = np.sqrt(np.mean(via_table.values**2))
        assert np.max(np.abs(via_form.values - via_table.values)) <= 1e-12 * rms
        assert np.array_equal(via_form.brownian, via_table.brownian)

    @pytest.mark.parametrize("gamma", [g for g in GAMMAS if len(g) == 2])
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_form_gives_the_second_moment_and_the_constant(self, gamma, interval):
        # Z_hat = A (xi^T M xi - tr M) with M symmetric, so E[Z_hat^2] =
        # 2 A^2 ||M||_F^2, against the permanent over the table's Gram, and
        # A tr M is minus the constant term; M is built wherever the table
        # has rows, tall or wide
        ker = KernelSpec(gamma)
        grid = build_grid(ker)
        est = _build_estimator(ker, grid, interval)
        form = _form(est)
        a = ker.constant
        m2 = _permanent_moment(ker, est)
        assert 2.0 * a**2 * np.sum(form**2) == pytest.approx(m2, rel=1e-12, abs=0.0)
        assert a * np.trace(form) == pytest.approx(-a * est.const, rel=1e-12, abs=0.0)
        assert np.array_equal(form, form.T) and not form.flags.writeable

    def test_a_cold_draw_factorizes_once(self, monkeypatch):
        # a miss builds M from the draw's own table, and the second moment
        # reads it off the same M; discrete_second_moment, which builds its
        # own M, factorizes once per call as well
        ker = KernelSpec((-0.7, -0.65))
        grid = build_grid(ker)
        calls = []

        def counted(*args):
            calls.append(args)
            return _factorize(*args)

        monkeypatch.setattr(sampler_module, "_factorize", counted)
        _quadratic_form.cache_clear()
        for interval in (None, (0.0, 0.25)):
            batch = sample_chaos(ker, grid, 8, seed=1, interval=interval)
            assert batch.second_moment > 0.0
        assert len(calls) == 2 and _quadratic_form.cache_info().misses == 2
        for interval in (None, (0.0, 0.25), (0.75, 1.0)):
            calls.clear()
            assert discrete_second_moment(ker, grid, interval) > 0.0
            assert len(calls) == 1
        assert _quadratic_form.cache_info().misses == 2

    @pytest.mark.parametrize("gamma", [(-0.8,), (-0.7, -0.65), (-0.7, -0.65, -0.6)])
    def test_a_draw_out_of_range_raises_before_m(self, gamma):
        # the scale check fires after the table and before the fold, M and
        # any noise, so the draws' cache of M is neither read nor filled
        ker = KernelSpec(gamma, horizon=1e-300)
        grid = build_grid(ker)
        before = _quadratic_form.cache_info()
        with pytest.raises(DomainError, match=re.escape("normal range at horizon 1e-300")):
            sample_chaos(ker, grid, 8, seed=1)
        assert _quadratic_form.cache_info() == before

    def test_a_warm_draw_matches_a_cold_one(self):
        ker = KernelSpec((-0.7, -0.65))
        grid = build_grid(ker)
        _quadratic_form.cache_clear()
        cold, warm = memo_draw(ker, grid, None), memo_draw(ker, grid, None)
        assert form_entries() == 1 and _quadratic_form.cache_info().hits == 1
        _quadratic_form.cache_clear()
        fresh = memo_draw(ker, build_grid(ker), None)
        assert_same_bits(warm, cold)
        assert_same_bits(fresh, cold)

    def test_the_key_holds_the_interval_the_horizon_and_the_exponents(self):
        # two draws of each case, one entry per case
        cases = [((-0.7, -0.65), 1.0, None), ((-0.7, -0.65), 1.0, (0.0, 0.25)),
                 ((-0.7, -0.65), 17.0, None), ((-0.7, -0.6), 1.0, None)]
        _quadratic_form.cache_clear()
        for gamma, horizon, interval in cases:
            ker = KernelSpec(gamma, horizon=horizon)
            grid = build_grid(ker)
            assert takes_form(ker, grid, interval)
            memo_draw(ker, grid, interval)
            memo_draw(ker, grid, interval)
        assert _quadratic_form.cache_info()[:] == (len(cases), len(cases), _FORM_ENTRIES, len(cases))

    def test_the_entry_bound_holds(self):
        # two keys more than the bound, each at its own horizon: the
        # cache keeps the bound's count, and an evicted key builds again
        gamma = (-0.7, -0.65)
        _quadratic_form.cache_clear()
        for horizon in range(1, _FORM_ENTRIES + 3):
            ker = KernelSpec(gamma, horizon=float(horizon))
            grid = GridSpec(float(horizon), 16)
            assert takes_form(ker, grid, None)
            sample_chaos(ker, grid, 8, seed=1, with_second_moment=False)
        assert form_entries() == _FORM_ENTRIES == _quadratic_form.cache_info().maxsize
        sample_chaos(KernelSpec(gamma), GridSpec(1.0, 16), 8, seed=1, with_second_moment=False)
        assert _quadratic_form.cache_info().misses == _FORM_ENTRIES + 3

    def test_threads_racing_on_the_cache_match_a_serial_run(self):
        # four callers, more than the cores of a small host, draw on two
        # keys more than the bound, each in its own order, so hits, misses
        # and evictions interleave; every draw matches a serial run, and no
        # count is lost
        gamma = (-0.7, -0.65)
        horizons = [float(h) for h in range(1, _FORM_ENTRIES + 3)]
        cases = [(KernelSpec(gamma, horizon=h), GridSpec(h, 16)) for h in horizons]
        serial = [memo_draw(ker, grid, None) for ker, grid in cases]
        _quadratic_form.cache_clear()
        n_threads = 4
        start = threading.Barrier(n_threads, timeout=60)
        out = [[None] * len(cases) for _ in range(n_threads)]

        def run(j):
            start.wait()
            for i in np.random.default_rng(j).permutation(len(cases)):
                out[j][i] = memo_draw(*cases[i], None)

        threads = [threading.Thread(target=run, args=(j,)) for j in range(n_threads)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        for got in out:
            for one, want in zip(got, serial):
                assert_same_bits(one, want)
        info = _quadratic_form.cache_info()
        assert info.hits + info.misses == n_threads * len(cases)
        assert info.currsize == _FORM_ENTRIES


FACE2_Q2_POINTS = [p.entries for p in path_points(
    BoundaryPath(Face.SUM_TO_CRITICAL, GammaVector((-0.7, -0.65)), (0.4, 0.2, 0.1, 0.05, 0.01)))]


def fold_route(ker, grid, interval) -> bool:
    # whether the second moment is read off the fold: no Wick term with
    # three or more unmatched factors, and M only where the draw uses it
    est = _build_estimator(ker, grid, interval)
    return not est.products or est.form is not None


class TestSecondMomentRoutes:
    # where the draw folds the estimator into a vector and M, the second
    # moment is A^2 (|folded|^2 + 2 ||M||_F^2); the permanent over the
    # table's Gram is the oracle, forced by calling it directly
    @pytest.mark.parametrize("gamma", [g for g in GAMMAS if len(g) <= 2])
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_fold_matches_the_permanent(self, gamma, interval):
        ker = KernelSpec(gamma)
        grid = build_grid(ker)
        assert fold_route(ker, grid, interval) == (len(gamma) == 1 or (gamma, interval) in FORM_CASES)
        want = _permanent_moment(ker, _factorize(ker, grid, interval))
        assert discrete_second_moment(ker, grid, interval) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma", FACE2_Q2_POINTS)
    def test_fold_matches_the_permanent_along_face_two(self, gamma):
        # the sum-to-critical path from (-0.7, -0.65) at eps = 0.4, 0.2,
        # 0.1, 0.05 and 0.01, where m2 falls to 0.173
        ker = KernelSpec(gamma)
        grid = build_grid(ker)
        assert fold_route(ker, grid, None)
        want = _permanent_moment(ker, _factorize(ker, grid, None))
        assert discrete_second_moment(ker, grid) == pytest.approx(want, rel=1e-12, abs=0.0)
        if gamma == FACE2_Q2_POINTS[-1]:
            assert want == pytest.approx(0.173, abs=5e-4)

    def test_second_moment_leaves_the_form_cache_alone(self):
        ker = KernelSpec((-0.7, -0.65))
        grid = build_grid(ker)
        memo_draw(ker, grid, None)
        before = _quadratic_form.cache_info()
        for interval in INTERVALS:
            discrete_second_moment(ker, grid, interval)
        assert _quadratic_form.cache_info() == before

    @pytest.mark.parametrize("gamma, interval", [((-0.8,), None), *sorted(FORM_CASES, key=str)])
    def test_a_default_draw_skips_the_permanent(self, gamma, interval, monkeypatch):
        # the draw's second moment comes off the fold it draws with, the
        # same bits as discrete_second_moment's, cold and warm
        ker = KernelSpec(gamma)
        grid = build_grid(ker)

        def no_permanent(*args):
            raise AssertionError("the permanent route ran")

        monkeypatch.setattr(sampler_module, "_permanent_moment", no_permanent)
        _quadratic_form.cache_clear()
        cold, warm = (sample_chaos(ker, grid, 64, seed=2, interval=interval) for _ in range(2))
        assert cold.second_moment == warm.second_moment == discrete_second_moment(ker, grid, interval)

    def test_an_order_one_sub_interval_below_float64_raises(self):
        # the fold route keeps the check of a second moment that underflows
        ker = KernelSpec((-0.8,))
        grid = build_grid(ker)
        assert fold_route(ker, grid, (0.0, 1e-250))
        with pytest.raises(DomainError, match=re.escape("(0.0, 1e-250) falls below")):
            discrete_second_moment(ker, grid, (0.0, 1e-250))
        with pytest.raises(DomainError, match=re.escape("(0.0, 1e-250) falls below")):
            sample_chaos(ker, grid, 8, seed=1, interval=(0.0, 1e-250))


class TestIncrements:
    def test_full_interval_matches_plain_call(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = GridSpec(1.0, 4)
        a = sample_chaos(ker, grid, 200, seed=21)
        b = sample_process_increment(ker, grid, (0.0, 1.0), 200, seed=21)
        assert np.array_equal(a.values, b.values)

    def test_degenerate_span_is_zero(self):
        # lo == hi takes the sampler's one path with no s-node: the values
        # and both second moments are 0, and the Brownian value is the
        # B(t) every other interval on the grid reads from the same noise;
        # at 0, at the horizon, on an interior cell edge and inside a cell
        for gamma in GAMMAS:
            ker = KernelSpec(gamma)
            grid = build_grid(ker, cells=28)
            assert 0.5 in grid.edges and 0.3 not in grid.edges
            full = sample_chaos(ker, grid, 70, seed=2, return_brownian=True)
            for t in (0.0, 1.0, 0.5, 0.3):
                b = sample_process_increment(ker, grid, (t, t), 70, seed=2, return_brownian=True)
                assert np.all(b.values == 0.0)
                assert b.second_moment == 0.0
                assert discrete_second_moment(ker, grid, (t, t)) == 0.0
                assert np.array_equal(b.brownian, full.brownian)

    def test_pathwise_additivity(self):
        # Z(1) vs Z(0.5) + (Z(1)-Z(0.5)) on shared noise: both sides put
        # one s-node in each cell, except that the increments cut the cell
        # holding 0.5 in two, so the residual is that cell's share
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, cells=57)
        full = sample_chaos(ker, grid, 2000, seed=77)
        first = sample_process_increment(ker, grid, (0.0, 0.5), 2000, seed=77)
        second = sample_process_increment(ker, grid, (0.5, 1.0), 2000, seed=77)
        resid = full.values - first.values - second.values
        rms_ratio = np.sqrt(np.mean(resid**2) / np.mean(full.values**2))
        assert rms_ratio < 0.01

    def test_quarter_increments_share_the_noise(self):
        # every interval on a grid reads the same latent and cell columns:
        # the four quarters see the same Brownian path as the full call,
        # and their increments add up to the full value as in
        # test_pathwise_additivity
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, cells=57)
        assert _factorize(ker, grid, None).r > 0
        full = sample_chaos(ker, grid, 2000, seed=77, return_brownian=True)
        quarters = [sample_process_increment(ker, grid, (j / 4, (j + 1) / 4), 2000, seed=77,
                                             return_brownian=True) for j in range(4)]
        for inc in quarters:
            assert np.array_equal(inc.brownian, full.brownian)
        resid = full.values - sum(inc.values for inc in quarters)
        rms_ratio = np.sqrt(np.mean(resid**2) / np.mean(full.values**2))
        assert rms_ratio < 0.01

    def test_increment_scaling_ratio(self):
        # stationarity + self-similarity: E[(Z(2s)-Z(s))^2]/E[Z(s)^2] is
        # s-independent in the continuum; exact discrete m2 should agree
        # across two scales to within discretization error
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, cells=228)
        ratios = []
        for s in (0.2, 0.4):
            inc = discrete_second_moment(ker, grid, interval=(s, 2 * s))
            base = discrete_second_moment(ker, grid, interval=(0.0, s))
            ratios.append(inc / base)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.02)

    def test_span_validation(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = GridSpec(1.0, 4)
        # reversed or outside [0, t]; not a pair; not real numbers, and
        # bool is an int subclass, but True is no time
        for bad in [(0.5, 0.2), (-0.1, 0.5), (0.1,), "ab", 0.5, (0.1, 0.2, 0.9), (True, 1), (0.1, "0.2"), (0.1, None)]:
            with pytest.raises(InvalidInputError):
                sample_process_increment(ker, grid, bad, 10, seed=1)
            with pytest.raises(InvalidInputError):
                discrete_second_moment(ker, grid, bad)
        # any pair of real numbers is a span, taken as Python floats
        inc = sample_process_increment(ker, grid, np.array([0.25, 0.5]), 10, seed=1)
        assert inc.interval == (0.25, 0.5) and type(inc.interval[0]) is float
        assert np.array_equal(inc.values, sample_process_increment(ker, grid, (0.25, 0.5), 10, seed=1).values)
        assert discrete_second_moment(ker, grid, (np.int64(0), np.float32(0.5))) == discrete_second_moment(
            ker, grid, (0.0, 0.5))


class TestBrownianOutput:
    def test_terminal_brownian_variance_and_orthogonality(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, cells=57)
        batch = sample_chaos(ker, grid, 20000, seed=13, return_brownian=True)
        w = batch.brownian
        var, se = variance_se(w)
        assert abs(var - 1.0) < 4 * se  # W(1) is standard
        # even chaos is uncorrelated with the first chaos
        corr = np.corrcoef(batch.values, w)[0, 1]
        assert abs(corr) < 4 / math.sqrt(batch.n)


class TestErrorsAndValidation:
    def test_order_cap(self):
        ker = KernelSpec((-0.52, -0.55, -0.6, -0.58, -0.54))
        grid = GridSpec(1.0, 4)
        with pytest.raises(SizeError):
            sample_chaos(ker, grid, 10, seed=1)
        with pytest.raises(SizeError):
            discrete_second_moment(ker, grid)

    def test_seed_and_count_validation(self):
        ker = KernelSpec((-0.6,))
        grid = GridSpec(1.0, 4)
        # bool is an int subclass: True is neither a count nor a seed
        for bad in (-1, 2.5, 3.0, "3", True, False):
            with pytest.raises(InvalidInputError):
                sample_chaos(ker, grid, bad, seed=1)
        for bad in (-3, 1.5, True, False):
            with pytest.raises(InvalidInputError):
                sample_chaos(ker, grid, 10, seed=bad)

    def test_horizon_mismatch(self):
        # a horizon-2 kernel on a horizon-1 grid would quietly give Z(1)
        grid = GridSpec(1.0, 4)
        ker = KernelSpec((-0.6, -0.7), horizon=2.0)
        with pytest.raises(InvalidInputError):
            sample_chaos(ker, grid, 10, seed=1)
        with pytest.raises(InvalidInputError):
            discrete_second_moment(ker, grid)
        with pytest.raises(InvalidInputError):
            sample_process_increment(ker, grid, (0.0, 0.5), 10, seed=1)

    def test_grid_near_face_one_samples(self):
        ker = KernelSpec((-0.502, -0.7))
        grid = build_grid(ker, cells=14)
        batch = sample_chaos(ker, grid, 10, seed=1)
        assert batch.n == 10 and np.all(np.isfinite(batch.values))

    def test_empty_batch(self):
        ker = KernelSpec((-0.6,))
        grid = GridSpec(1.0, 4)
        batch = sample_chaos(ker, grid, 0, seed=1)
        assert batch.n == 0


class TestRefinement:
    def test_variance_gap_shrinks_along_doubling(self):
        # |m2 - 1| must decrease at each mesh doubling
        ker = KernelSpec((-0.6, -0.7))
        gaps = []
        for cells in (57, 114, 228, 455):
            grid = build_grid(ker, cells=cells)
            gaps.append(abs(discrete_second_moment(ker, grid) - 1.0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.08

    def test_order_one_variance_gap_is_the_mesh(self):
        # with the far field continuous, q=1 loses only the cell averages'
        # mass, which falls with the mesh: 1 - m2 reads 1.79e-4, 4.26e-5
        # and 9.32e-6 here, about 0.02 / cells; an s-rule blind to the
        # cell edges drifts away as the mesh refines
        ker = KernelSpec((-0.8,))
        for cells, bound in ((114, 0.2 / 1024), (455, 0.2 / 4096), (1820, 0.2 / 16384)):
            grid = build_grid(ker, cells=cells)
            batch = sample_chaos(ker, grid, 0, seed=1)
            assert 0.0 < 1.0 - batch.second_moment < bound

    @pytest.mark.parametrize("eps", [3e-3, 1e-3, 1e-4])
    def test_face_one_variance_is_whole(self, eps):
        # the face-1 limit lives in the far past: at g1 = -1/2 - eps the
        # variance mass below -X falls only like X^(-2 eps), and the
        # continuum far field holds all of it (m2 reads 0.99984, 0.99993
        # and 0.99997 on the default q=2 grid)
        path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.65,)), (eps,))
        ker = KernelSpec(path_points(path)[0])
        assert discrete_second_moment(ker, build_grid(ker)) >= 0.999

    def test_order_three_variance_rises_with_the_mesh(self):
        ker = KernelSpec((-0.7, -0.65, -0.6))
        m2 = [discrete_second_moment(ker, build_grid(ker, cells=n)) for n in (28, 57, 114, 228)]
        assert all(b > a for a, b in zip(m2, m2[1:]))


SCALE_KERNELS = [(-0.8,), (-0.7, -0.65), (-0.7, -0.65, -0.6)]
HORIZONS = [1e-200, 0.01, 0.5, 3.0, 17.0, 1e100, 1e200]


def hurst(gamma):
    return 1.0 + sum(gamma) + 0.5 * len(gamma)


class TestSelfSimilarity:
    # the process is H-self-similar with stationary increments, so the
    # default grid at horizon t is the unit one scaled by t, and what the
    # sampler computes on it is the unit value times t^H (values) or
    # t^(2H) (second moments), up to rounding; the kernels' H is 0.7,
    # 0.65 and 0.55, so t^(2H) stays a normal float from 1e-200 to 1e200
    @pytest.mark.parametrize("gamma", SCALE_KERNELS)
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_second_moment_scales_as_t_to_the_2h(self, gamma, horizon):
        unit = discrete_second_moment(KernelSpec(gamma), build_grid(KernelSpec(gamma)))
        ker = KernelSpec(gamma, horizon=horizon)
        m2 = discrete_second_moment(ker, build_grid(ker))
        assert m2 / horizon ** (2.0 * hurst(gamma)) == pytest.approx(unit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma", SCALE_KERNELS)
    def test_values_scale_as_t_to_the_h(self, gamma):
        # the same seed draws the same noise, since the grids have one cell
        # count and the shared unit root one rank
        unit = sample_chaos(KernelSpec(gamma), build_grid(KernelSpec(gamma)), 128, 9, with_second_moment=False)
        rms = np.sqrt(np.mean(unit.values**2))
        for horizon in HORIZONS:
            ker = KernelSpec(gamma, horizon=horizon)
            batch = sample_chaos(ker, build_grid(ker), 128, 9, with_second_moment=False)
            scaled = batch.values / horizon ** hurst(gamma)
            assert np.max(np.abs(scaled - unit.values)) <= 1e-9 * rms

    def test_brownian_counts_only_the_cells_of_zero_to_t(self):
        # at t = 1e-13 the cells left of 0 are narrower than 1e-12, so an
        # absolute tolerance in the mask counted some of them into B(t)
        t = 1e-13
        ker = KernelSpec((-0.7, -0.65), horizon=t)
        grid = build_grid(ker, cells=28)
        batch = sample_chaos(ker, grid, 64, seed=5, return_brownian=True)
        inside = grid.edges[:-1] >= 0.0
        assert np.sum(grid.widths[inside]) == pytest.approx(t, rel=1e-12)
        xi = noise_rows(5, 64, ker, grid)
        want = xi[:, -grid.n_cells :][:, inside] @ np.sqrt(grid.widths[inside])
        assert np.allclose(batch.brownian, want, rtol=1e-14, atol=1e-14 * math.sqrt(t))

    @pytest.mark.parametrize("horizon", [1e-13, 1.0, 1e13])
    def test_span_tolerance_is_relative_to_the_horizon(self, horizon):
        # an end inside the slack is the horizon itself
        grid = build_grid(KernelSpec((-0.7, -0.65), horizon=horizon), cells=28)
        with pytest.raises(InvalidInputError):
            _span(grid, (0.0, 1.5 * horizon))
        assert _span(grid, (0.0, horizon * (1.0 + 1e-13))) == (0.0, horizon)
        assert _span(grid, (horizon * (1.0 + 1e-13),) * 2) == (horizon, horizon)

    @pytest.mark.parametrize("horizon", [1e-13, 1.0, 1e13])
    def test_an_end_in_the_slack_gives_the_horizon_bit_for_bit(self, horizon):
        # kept as given, hi = t (1 + 1e-13) made one more s-panel right of
        # the last cell, its node outside [0, t]: m2 read
        # 0.9425967829041533 over (0, 1 + 5e-13) against 0.9425967829034745
        ker = KernelSpec((-0.7, -0.65), horizon=horizon)
        grid = build_grid(ker)
        slack = (0.0, horizon * (1.0 + 1e-13))
        want = sample_chaos(ker, grid, 70, seed=6, interval=(0.0, horizon), return_brownian=True)
        got = sample_chaos(ker, grid, 70, seed=6, interval=slack, return_brownian=True)
        assert_same_bits(got, want)
        assert got.second_moment == want.second_moment == discrete_second_moment(ker, grid, slack)
        assert got.interval == want.interval == (0.0, horizon)

    @pytest.mark.parametrize("gamma, horizon", [*((g, 1e300) for g in SCALE_KERNELS[:2]),
                                                *((g, 1e-250) for g in SCALE_KERNELS[:2]),
                                                *((g, 1e-300) for g in SCALE_KERNELS)])
    def test_second_moment_outside_float64_raises(self, gamma, horizon):
        # t^(2H) leaves float64's normal range: above it at 1e300, where the
        # second moment read NaN, and below it at 1e-250 (1e-350, 1e-325)
        # and 1e-300 (1e-420 to 1e-330), where it read 0.0; the values, of
        # order t^H, still sample
        ker = KernelSpec(gamma, horizon=horizon)
        grid = build_grid(ker)
        with pytest.raises(DomainError, match=re.escape(f"normal range at horizon {horizon}")):
            discrete_second_moment(ker, grid)
        with pytest.raises(DomainError):
            sample_chaos(ker, grid, 8, seed=1)
        values = sample_chaos(ker, grid, 8, seed=1, with_second_moment=False).values
        assert np.isfinite(values).all() and np.all(values != 0.0)

    @pytest.mark.parametrize("hi", [1e-200, 1e-250])
    def test_a_sub_interval_second_moment_below_float64_raises(self, hi):
        # t^(2H) is 1 here, but (0, hi) is the cut share of one cell of
        # width 1/455, and its second moment read 0.0; the values still
        # sample, and an empty interval there still reads 0.0
        ker = KernelSpec((-0.7, -0.65))
        grid = build_grid(ker)
        with pytest.raises(DomainError, match=re.escape(f"over the interval (0.0, {hi}) falls below")):
            discrete_second_moment(ker, grid, (0.0, hi))
        with pytest.raises(DomainError, match=re.escape(f"(0.0, {hi})")):
            sample_chaos(ker, grid, 8, seed=1, interval=(0.0, hi))
        values = sample_chaos(ker, grid, 8, seed=1, interval=(0.0, hi), with_second_moment=False).values
        assert np.isfinite(values).all()
        assert discrete_second_moment(ker, grid, (hi, hi)) == 0.0
        assert sample_chaos(ker, grid, 8, seed=1, interval=(hi, hi)).second_moment == 0.0

    def test_a_sub_interval_second_moment_in_range_is_kept(self):
        # (0, 1e-150) is still a normal float64, and is kept
        ker = KernelSpec((-0.7, -0.65))
        assert discrete_second_moment(ker, build_grid(ker), (0.0, 1e-150)) == 7.865087598391688e-299

    @pytest.mark.parametrize("t", [1e250, 1e-250])
    def test_order_three_second_moment_stays_finite(self, t):
        # H = 0.55, so t^(2H) = 1e275 and 1e-275 are still normal floats
        gamma = SCALE_KERNELS[2]
        unit = discrete_second_moment(KernelSpec(gamma), build_grid(KernelSpec(gamma), cells=28))
        ker = KernelSpec(gamma, horizon=t)
        m2 = sample_chaos(ker, build_grid(ker, cells=28), 8, seed=1).second_moment
        assert math.isfinite(m2) and m2 > 0.0
        assert m2 / t ** (2.0 * hurst(gamma)) == pytest.approx(unit, rel=1e-12, abs=0.0)


class TestSerialization:
    def test_npz_roundtrip(self, tmp_path):
        ker = KernelSpec((-0.6, -0.7))
        grid = GridSpec(1.0, 4)
        for n in (25, 0):
            batch = sample_chaos(ker, grid, n, seed=4, return_brownian=True)
            path = tmp_path / f"batch{n}.npz"
            save_npz(batch, path)
            loaded = load_npz(path)
            assert np.array_equal(loaded["values"], batch.values)
            assert np.array_equal(loaded["brownian"], batch.brownian)
            assert loaded["hash"] == batch.content_hash()
            assert loaded["meta"]["n"] == n
            assert loaded["meta"]["interval"] == [0.0, 1.0]
            assert loaded["meta"]["version"] == batch.meta()["version"] == rosenblatt.__version__

    def test_a_draw_without_its_second_moment_writes_null(self, tmp_path):
        # the second moment not computed is None, JSON null, never a bare
        # NaN, which a strict parser rejects
        def strict(text):
            return json.loads(text, parse_constant=lambda name: pytest.fail(f"non-finite {name} in meta"))

        ker = KernelSpec((-0.6, -0.7))
        batch = sample_chaos(ker, GridSpec(1.0, 4), 25, seed=4, with_second_moment=False)
        assert batch.second_moment is None
        assert strict(json.dumps(batch.meta()))["second_moment"] is None
        save_npz(batch, tmp_path / "batch.npz")
        with np.load(tmp_path / "batch.npz") as data:
            assert strict(str(data["meta"]))["second_moment"] is None
        loaded = load_npz(tmp_path / "batch.npz")
        assert loaded["meta"]["second_moment"] is None
        assert loaded["hash"] == batch.content_hash()
        assert np.array_equal(loaded["values"], batch.values)
        nan_batch = ChaosSampleBatch(batch.values, 4, ker, batch.grid, batch.interval, math.nan)
        with pytest.raises(ValueError):
            save_npz(nan_batch, tmp_path / "nan.npz")
