"""Sampler tests: exact second-moment engine against the independent
Wick/Isserlis oracle on tiny grids, Monte Carlo moments, reproducibility,
increment coupling, and NPZ serialization."""
import math
import sys

import numpy as np
import pytest

import rosenblatt
import rosenblatt.sampler as sampler_module
from rosenblatt.errors import GridTooSmallError, InvalidInputError, SizeError
from rosenblatt.grid import build_grid
from rosenblatt.kernel import KernelSpec
from rosenblatt.sampler import (
    ChaosSampleBatch,
    _noise,
    discrete_second_moment,
    load_npz,
    sample_chaos,
    sample_process_increment,
    save_npz,
)
from wick_oracle import hermite_expression, wick_moment

from helpers import (
    cell_s_rule,
    dense_chaos_reference,
    dense_second_moment_reference,
    evaluate_expression,
    tiny_grid,
    tiny_hat_tensor,
)


def noise_rows(seed, n, n_cells):
    # the noise rows sample_chaos draws for realizations 0..n-1
    return _noise(np.random.SeedSequence(seed).spawn(math.ceil(n / 64)), 0, n, n_cells)


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
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        f_hat = tiny_hat_tensor(ker, grid)
        h = grid.widths[0]
        oracle = wick_moment(hermite_expression(f_hat, h) ** 2, h)
        engine = discrete_second_moment(ker, grid)
        assert engine == pytest.approx(oracle, rel=1e-10)

    def test_q3_tiny_grid_exact(self):
        ker = KernelSpec((-0.55, -0.6, -0.65))
        grid = tiny_grid(n_cells=5, left=1.5, horizon=1.0)
        f_hat = tiny_hat_tensor(ker, grid)
        h = grid.widths[0]
        oracle = wick_moment(hermite_expression(f_hat, h) ** 2, h)
        engine = discrete_second_moment(ker, grid)
        assert engine == pytest.approx(oracle, rel=1e-10)

    def test_q4_tiny_grid_exact(self):
        ker = KernelSpec((-0.55, -0.6, -0.6, -0.65))
        grid = tiny_grid(n_cells=5, left=1.5, horizon=1.0)
        f_hat = tiny_hat_tensor(ker, grid)
        h = grid.widths[0]
        oracle = wick_moment(hermite_expression(f_hat, h) ** 2, h)
        engine = discrete_second_moment(ker, grid)
        assert engine == pytest.approx(oracle, rel=1e-10)

    def test_q1_norm_identity(self):
        # for q=1 the second moment is just the squared norm of the
        # discretized kernel; reassemble it directly from factor columns
        from rosenblatt.sampler import factor_matrix

        ker = KernelSpec((-0.6,))
        grid = tiny_grid(n_cells=8, left=3.0, horizon=1.0)
        nodes, weights = cell_s_rule(grid)
        b = factor_matrix(grid.edges, (-0.6,), nodes)
        direct = ker.constant**2 * float(np.sum((b @ weights) ** 2))
        assert discrete_second_moment(ker, grid) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("gamma", [
        (-0.6, -0.7), (-0.55, -0.6, -0.65), (-0.55, -0.6, -0.6, -0.65),
    ])
    def test_pathwise_equals_hermite_expression(self, gamma):
        # each realization is the oracle polynomial evaluated at its cell
        # increments sqrt(h) xi; 3 far cells of 8 for the full interval
        ker = KernelSpec(gamma)
        grid = tiny_grid(n_cells=8, left=3.0, horizon=1.0)
        h = grid.widths[0]
        batch = sample_chaos(ker, grid, 50, seed=8, with_second_moment=False)
        xi = noise_rows(8, 50, grid.n_cells)
        oracle = evaluate_expression(hermite_expression(tiny_hat_tensor(ker, grid), h), np.sqrt(h) * xi)
        assert np.max(np.abs(batch.values - oracle)) <= 1e-12 * np.sqrt(np.mean(oracle**2))


class TestAssemblyVsDenseReference:
    # the grouped, folded, far-field-compressed assembly against the plain
    # Wick sum over dense factor matrices, on the same noise rows, and
    # the second moment against the dense Gram engine; the tiny grid's far
    # block is empty for the full interval only
    @pytest.mark.parametrize("gamma", [
        (-0.8,), (-0.7, -0.65), (-0.7, -0.7), (-0.7, -0.65, -0.6), (-0.65, -0.65, -0.6),
    ])
    @pytest.mark.parametrize("interval", [None, (0.0, 0.25), (0.75, 1.0)])
    @pytest.mark.parametrize("default_grid", [True, False])
    def test_matches_dense_reference(self, gamma, interval, default_grid):
        ker = KernelSpec(gamma)
        grid = build_grid(ker) if default_grid else tiny_grid(n_cells=6, left=0.5, horizon=1.0)
        n, seed = 64, 31
        batch = sample_chaos(ker, grid, n, seed, interval=interval)
        xi = noise_rows(seed, n, grid.n_cells)
        ref = dense_chaos_reference(ker, grid, xi, interval)
        assert np.max(np.abs(batch.values - ref)) <= 1e-12 * np.sqrt(np.mean(ref**2))
        m2_ref = dense_second_moment_reference(ker, grid, interval)
        assert batch.second_moment == pytest.approx(m2_ref, rel=1e-13, abs=0.0)
        assert batch.second_moment == discrete_second_moment(ker, grid, interval)

    def test_s_node_on_a_chebyshev_point(self):
        # one cell on [0, 1] puts its s-node at 1/2, which is also the
        # middle Chebyshev point of the far-field interpolation; the cell
        # [-2, -1] is far
        ker = KernelSpec((-0.7, -0.65))
        grid = tiny_grid(n_cells=3, left=2.0, horizon=1.0)
        batch = sample_chaos(ker, grid, 32, 3, with_second_moment=False)
        xi = noise_rows(3, 32, grid.n_cells)
        ref = dense_chaos_reference(ker, grid, xi)
        assert np.max(np.abs(batch.values - ref)) <= 1e-12 * np.sqrt(np.mean(ref**2))


class TestSampleMoments:
    def test_q2_tiny_grid_second_moment_vs_oracle(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        f_hat = tiny_hat_tensor(ker, grid)
        oracle = wick_moment(hermite_expression(f_hat, grid.widths[0]) ** 2, grid.widths[0])
        batch = sample_chaos(ker, grid, 40000, seed=7)
        var, se = variance_se(batch.values)
        m2 = float(np.mean(batch.values**2))
        assert abs(m2 - oracle) < 4 * se

    def test_q3_tiny_grid_second_moment_vs_oracle(self):
        ker = KernelSpec((-0.55, -0.6, -0.65))
        grid = tiny_grid(n_cells=5, left=1.5, horizon=1.0)
        f_hat = tiny_hat_tensor(ker, grid)
        oracle = wick_moment(hermite_expression(f_hat, grid.widths[0]) ** 2, grid.widths[0])
        batch = sample_chaos(ker, grid, 20000, seed=11)
        _, se = variance_se(batch.values)
        m2 = float(np.mean(batch.values**2))
        assert abs(m2 - oracle) < 4 * se

    def test_q1_mean_and_variance(self):
        # linear Gaussian functional: mean 0, variance = discrete norm
        ker = KernelSpec((-0.6,))
        grid = build_grid(ker, n_core=256)
        batch = sample_chaos(ker, grid, 100_000, seed=3)
        target = batch.second_moment
        var, se = variance_se(batch.values)
        assert abs(var - target) < 4 * se
        mean_se = np.std(batch.values) / math.sqrt(batch.n)
        assert abs(batch.mean()) < 4 * mean_se

    def test_mean_zero_q2_q3(self):
        for gamma, m in [((-0.6, -0.7), 20000), ((-0.55, -0.6, -0.65), 10000)]:
            ker = KernelSpec(gamma)
            grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
            batch = sample_chaos(ker, grid, m, seed=19)
            mean_se = np.std(batch.values) / math.sqrt(m)
            assert abs(batch.mean()) < 4 * mean_se

    def test_sample_variance_matches_engine_on_default_grid(self):
        # end-to-end: MC variance vs the exact engine on a real grid
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, n_core=1024)
        batch = sample_chaos(ker, grid, 8000, seed=123)
        var, se = variance_se(batch.values)
        assert abs(var - batch.second_moment) < 4 * se


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        a = sample_chaos(ker, grid, 500, seed=42)
        b = sample_chaos(ker, grid, 500, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_worker_count_bit_identical(self, monkeypatch):
        # each chunk is drawn and assembled alone and writes only its own
        # slices, so 1, 2 or 3 workers (more than the cores of a small
        # host) give the same bits; 800 realizations make 4 chunks of at
        # most 256, and a short switch interval makes the threads
        # interleave often
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for gamma, interval in [((-0.6,), None), ((-0.6, -0.7), (0.75, 1.0)),
                                    ((-0.7, -0.65, -0.6), (0.75, 1.0))]:
                ker = KernelSpec(gamma)
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
        # (rows, n_cells) fill; the last block draws only the rows needed.
        n, n_cells, seed = 150, 40, 2024
        rows = noise_rows(seed, n, n_cells)
        streams = np.random.SeedSequence(seed).spawn(3)
        for b, start in enumerate(range(0, n, 64)):
            fill = np.random.Generator(np.random.SFC64(streams[b])).standard_normal(
                (min(64, n - start), n_cells))
            assert np.array_equal(rows[start : start + 64], fill)

    def test_prefix_stability(self):
        # first k realizations of a longer batch equal the shorter batch
        ker = KernelSpec((-0.6,))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        a = sample_chaos(ker, grid, 100, seed=5)
        b = sample_chaos(ker, grid, 40, seed=5)
        assert np.array_equal(a.values[:40], b.values)

    def test_different_seeds_differ(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        a = sample_chaos(ker, grid, 100, seed=1)
        b = sample_chaos(ker, grid, 100, seed=2)
        assert not np.allclose(a.values, b.values)


class TestIncrements:
    def test_full_interval_matches_plain_call(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        a = sample_chaos(ker, grid, 200, seed=21)
        b = sample_process_increment(ker, grid, (0.0, 1.0), 200, seed=21)
        assert np.array_equal(a.values, b.values)

    def test_degenerate_span_is_zero(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        b = sample_process_increment(ker, grid, (0.5, 0.5), 50, seed=2)
        assert np.all(b.values == 0.0)
        assert b.second_moment == 0.0

    def test_pathwise_additivity(self):
        # Z(1) vs Z(0.5) + (Z(1)-Z(0.5)) on shared noise: both sides put
        # one s-node in each cell, except that the increments cut the cell
        # holding 0.5 in two, so the residual is that cell's share
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, n_core=512)
        full = sample_chaos(ker, grid, 2000, seed=77)
        first = sample_process_increment(ker, grid, (0.0, 0.5), 2000, seed=77)
        second = sample_process_increment(ker, grid, (0.5, 1.0), 2000, seed=77)
        resid = full.values - first.values - second.values
        rms_ratio = np.sqrt(np.mean(resid**2) / np.mean(full.values**2))
        assert rms_ratio < 0.01

    def test_increment_scaling_ratio(self):
        # stationarity + self-similarity: E[(Z(2s)-Z(s))^2]/E[Z(s)^2] is
        # s-independent in the continuum; exact discrete m2 should agree
        # across two scales to within discretization error
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, n_core=2048)
        ratios = []
        for s in (0.2, 0.4):
            inc = discrete_second_moment(ker, grid, interval=(s, 2 * s))
            base = discrete_second_moment(ker, grid, interval=(0.0, s))
            ratios.append(inc / base)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.02)

    def test_span_validation(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        with pytest.raises(InvalidInputError):
            sample_process_increment(ker, grid, (0.5, 0.2), 10, seed=1)
        with pytest.raises(InvalidInputError):
            sample_process_increment(ker, grid, (-0.1, 0.5), 10, seed=1)


class TestBrownianOutput:
    def test_terminal_brownian_variance_and_orthogonality(self):
        ker = KernelSpec((-0.6, -0.7))
        grid = build_grid(ker, n_core=512)
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
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        with pytest.raises(SizeError):
            sample_chaos(ker, grid, 10, seed=1)
        with pytest.raises(SizeError):
            discrete_second_moment(ker, grid)

    def test_seed_and_count_validation(self):
        ker = KernelSpec((-0.6,))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        for bad in (-1, 2.5, 3.0, "3"):
            with pytest.raises(InvalidInputError):
                sample_chaos(ker, grid, bad, seed=1)
        with pytest.raises(InvalidInputError):
            sample_chaos(ker, grid, 10, seed=-3)
        with pytest.raises(InvalidInputError):
            sample_chaos(ker, grid, 10, seed=1.5)

    def test_horizon_mismatch(self):
        # a horizon-2 kernel on a horizon-1 grid would quietly give Z(1)
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        ker = KernelSpec((-0.6, -0.7), horizon=2.0)
        with pytest.raises(InvalidInputError):
            sample_chaos(ker, grid, 10, seed=1)
        with pytest.raises(InvalidInputError):
            discrete_second_moment(ker, grid)
        with pytest.raises(InvalidInputError):
            sample_process_increment(ker, grid, (0.0, 0.5), 10, seed=1)

    def test_grid_too_small_enforced(self):
        # near face 1 the required window exceeds even the float64 cap
        ker = KernelSpec((-0.502, -0.7))
        grid = build_grid(ker, n_core=128, enforce_tail_bound=True)
        assert grid.tail_estimate > grid.tail_tolerance
        with pytest.raises(GridTooSmallError) as exc:
            sample_chaos(ker, grid, 10, seed=1)
        assert exc.value.required_window > grid.far_left

    def test_non_enforcing_grid_samples_anyway(self):
        ker = KernelSpec((-0.502, -0.7))
        grid = build_grid(ker, n_core=128)
        batch = sample_chaos(ker, grid, 10, seed=1)
        assert batch.n == 10

    def test_empty_batch(self):
        ker = KernelSpec((-0.6,))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
        batch = sample_chaos(ker, grid, 0, seed=1)
        assert batch.n == 0 and batch.variance() == 0.0


class TestRefinement:
    def test_variance_gap_shrinks_along_doubling(self):
        # |m2 - 1| must decrease at each mesh doubling
        ker = KernelSpec((-0.6, -0.7))
        gaps = []
        for n_core in (512, 1024, 2048, 4096):
            grid = build_grid(ker, n_core=n_core)
            gaps.append(abs(discrete_second_moment(ker, grid) - 1.0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.08

    def test_order_one_variance_is_one_minus_tail(self):
        # q=1 loses little to the cell averages, so m2 sits near 1 - tail;
        # an s-rule blind to the cell edges drifts away as the mesh refines
        ker = KernelSpec((-0.8,))
        for n_core in (1024, 4096, 16384):
            grid = build_grid(ker, n_core=n_core)
            m2 = discrete_second_moment(ker, grid)
            assert abs(m2 - (1.0 - grid.tail_estimate)) < 2e-3

    def test_order_three_variance_rises_with_the_mesh(self):
        ker = KernelSpec((-0.7, -0.65, -0.6))
        m2 = [discrete_second_moment(ker, build_grid(ker, n_core=n)) for n in (256, 512, 1024, 2048)]
        assert all(b > a for a, b in zip(m2, m2[1:]))


class TestSerialization:
    def test_npz_roundtrip(self, tmp_path):
        ker = KernelSpec((-0.6, -0.7))
        grid = tiny_grid(n_cells=6, left=2.0, horizon=1.0)
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
