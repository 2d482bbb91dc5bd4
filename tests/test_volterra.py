import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import poisson_tail, volterra_direct, volterra_longdouble
from restock import volterra
from restock.laplace import invert
from restock.montecarlo import simulate_vk
from restock.valuation import (
    FixedCost, GridSpec, LinearCost, ModelParams, effective, exact_k1_value, perpetual_value, series_value,
)
from restock.volterra import (
    _GRID_CHUNK, _MIN_BLOCK, _fft_length, _kernel_cdfs, _renewal_system, _series_inverse, _support_bound,
    erlang_cdf_grid, solve_renewal,
)

TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))


def grid_times(grid: GridSpec) -> np.ndarray:
    """The times i*h, i = 0, ..., n, of ``solve_renewal``'s values on the grid."""
    return np.arange(grid.n_steps + 1) * grid.h


class TestGridSpec:
    def test_accepts_clean_grid(self):
        grid = GridSpec(t_max=10.0, h=0.5)
        assert grid.n_steps == 20

    def test_rejects_untiling_step(self):
        with pytest.raises(ValueError, match="tile"):
            GridSpec(t_max=10.0, h=0.3)

    def test_rejects_oversized_step(self):
        # a step above t_max/2 is fine if it tiles (one step); 6 does not tile 10
        assert GridSpec(t_max=10.0, h=10.0).n_steps == 1
        with pytest.raises(ValueError, match="tile"):
            GridSpec(t_max=10.0, h=6.0)

    def test_rejects_a_positive_horizon_of_no_step(self):
        # round(1e-10 / 1) = 0 steps sit within the tiling tolerance of t_max,
        # but a grid of no step has no point at t_max
        for t_max, h in ((1e-10, 1.0), (1.0, 1e300)):
            with pytest.raises(ValueError, match="does not tile"):
                GridSpec(t_max=t_max, h=h)

    def test_rejects_nonpositive(self):
        # t_max = 0 is the one-point grid; a negative or nan horizon and a
        # nonpositive step are not grids
        assert GridSpec(t_max=0.0, h=0.1).n_steps == 0
        for t_max, h in ((-1.0, 0.1), (math.nan, 0.1), (10.0, 0.0), (10.0, -0.5)):
            with pytest.raises(ValueError):
                GridSpec(t_max=t_max, h=h)


class TestErlangGrid:
    @pytest.mark.parametrize("shape", [1, 2, 7, 25])
    def test_matches_scalar_cdf(self, shape):
        xs = np.linspace(0.0, 40.0, 101)
        grid, grid_next = erlang_cdf_grid(shape, 1.7, xs)
        for m, values in ((shape, grid), (shape + 1, grid_next)):
            scalar = np.array([poisson_tail(m, 1.7 * float(x)) for x in xs])
            assert np.abs(values - scalar).max() < 1e-12

    @given(shape=st.integers(1, 20), rate=st.floats(0.1, 5.0), x=st.floats(0.0, 60.0))
    @settings(max_examples=40)
    def test_pointwise_identity(self, shape, rate, x):
        got, got_next = erlang_cdf_grid(shape, rate, np.array([x]))
        assert abs(got[0] - poisson_tail(shape, rate * x)) < 1e-11
        assert abs(got_next[0] - poisson_tail(shape + 1, rate * x)) < 1e-11

    def test_large_shape_tail_is_relative(self):
        # shape 200 at rate*x <= 100: every value is a deep upper tail, which
        # 1 - (lower sum) would leave as rounding noise
        xs = np.linspace(0.0, 100.0, 10_001)
        cdf, cdf_next = erlang_cdf_grid(200, 1.0, xs)
        with mpmath.workdps(50):
            for i in range(1, xs.size, 40):
                for m, values in ((200, cdf), (201, cdf_next)):
                    exact = mpmath.gammainc(m, 0, xs[i], regularized=True)
                    if exact >= 1e-290:
                        assert abs(values[i] - exact) <= 1e-12 * exact
                    else:
                        assert 0.0 <= values[i] <= 2e-290
        # the solver's panel masses and first moments are these differences
        assert np.diff(cdf).min() >= 0.0
        assert np.diff(cdf_next).min() >= 0.0

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_points(self, x):
        with pytest.raises(ValueError, match="x must be finite and nonnegative"):
            erlang_cdf_grid(3, 1.0, np.array([0.0, x, 1.0]))

    @pytest.mark.parametrize("rate", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be a finite positive real"):
            erlang_cdf_grid(3, rate, np.array([1.0]))

    def test_rejects_zero_shape(self):
        with pytest.raises(ValueError, match="shape must be >= 1"):
            erlang_cdf_grid(0, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("shape", [2.5, 3.0, True])
    def test_rejects_noninteger_shape(self, shape):
        with pytest.raises(TypeError, match="shape must be an integer"):
            erlang_cdf_grid(shape, 1.0, np.array([1.0]))

    def test_empty_grid(self):
        cdf, cdf_next = erlang_cdf_grid(3, 1.0, np.array([]))
        assert cdf.shape == cdf_next.shape == (0,)


class TestKernelCdfs:
    """The solver's cdf sweep stops at the closed-form bound on the kernel's
    support; every cdf it leaves out must be exactly 1.0."""

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 50, 200, 500])
    def test_early_stop_leaves_out_only_exact_ones(self, k):
        for mu, h in itertools.product((0.1, 1.0, 10.0), (0.001, 0.01, 0.05, 0.2)):
            cdf_k, cdf_k1 = _kernel_cdfs(k, mu, h, 10**12)
            # the sweep ends at the last point but one; one exact 1.0 follows
            last = cdf_k.size - 2
            assert cdf_k[-1] == cdf_k1[-1] == 1.0
            # the support is the first exact 1.0 of F_(k+1); the sweep ends
            # past it, by at most a tenth and one step
            support = int(np.argmax(cdf_k1 == 1.0))
            assert cdf_k1[support] == 1.0
            assert support <= last <= 1.12 * support + 1
            # the cut part, the rest of it and the part after it, as one sweep
            # over the grid computes them
            start = last - last % _GRID_CHUNK
            times = np.arange(start, start + 2 * _GRID_CHUNK) * h
            full_k, full_k1 = erlang_cdf_grid(k, mu, times)
            for got, full in ((cdf_k, full_k), (cdf_k1, full_k1)):
                assert np.array_equal(got[start:-1], full[: last + 1 - start])
                assert np.all(full[max(support - start, 0) :] == 1.0)

    @pytest.mark.parametrize("k, mu_h", [(1, 0.01), (2, 4.9), (10, 0.05), (10, 3.0), (200, 0.5)])
    def test_system_equals_a_sweep_of_the_whole_grid(self, monkeypatch, k, mu_h):
        # at coarse steps F_(k+1) can first read 1.0 at the sweep's last point
        # (k = 2, mu*h = 4.9), so the 1.0 after it gives C its last coefficient
        eff = effective(ModelParams(k=k, mu=mu_h, r=0.02, cost=FixedCost(1.0)))
        grid = GridSpec(t_max=float(math.ceil(3.0 * _support_bound(k) / mu_h)), h=1.0)
        bounded = _renewal_system(eff, grid)
        monkeypatch.setattr(volterra, "_support_bound", lambda k: math.inf)
        for got, want in zip(bounded, _renewal_system(eff, grid)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 20_000, 64_000, 200_000])
    def test_padded_with_ones_is_the_full_sweep(self, n):
        # k = 10, mu*h = 0.001: the cdfs reach 1.0 in the eighth chunk
        times = np.arange(n + 1) * 0.001
        full = erlang_cdf_grid(10, 1.0, times)
        for got, want in zip(_kernel_cdfs(10, 1.0, 0.001, n), full):
            assert got.size <= n + 2
            padded = np.ones(n + 1)
            padded[: min(got.size, n + 1)] = got[: n + 1]
            assert np.array_equal(padded, want)


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestSeriesDivide:
    def test_fft_length_is_the_next_5_smooth_number(self):
        for m in range(1, 5001):
            assert _fft_length(m) == next(j for j in itertools.count(m) if _is_5_smooth(j))

    def test_matches_forward_substitution(self):
        # every size exercises a different Newton schedule and set of lengths;
        # y G truncated to n terms is the division G / C
        rfft, irfft = np.fft.rfft, np.fft.irfft
        rng = np.random.default_rng(7)
        for n in range(1, 301):
            # the renewal system's shape: c[0] > 0 > c[1:] with sum(c) > 0
            c = np.empty(n)
            c[0] = 1.0
            c[1:] = -0.9 / n * rng.random(n - 1)
            g = rng.random(n)
            direct = np.empty(n)
            for i in range(n):
                direct[i] = (g[i] - np.dot(c[i:0:-1], direct[:i])) / c[0]
            got = irfft(rfft(_series_inverse(c, n), 2 * n) * rfft(g, 2 * n), 2 * n)[:n]
            assert np.abs(got - direct).max() <= 1e-14 * np.abs(direct).max()


class TestSolveRenewal:
    def test_value_starts_at_zero(self):
        assert solve_renewal(TABLE, GridSpec(t_max=5.0, h=0.05))[0] == 0.0

    def test_single_unit_matches_closed_form(self):
        grid = GridSpec(t_max=500.0, h=0.05)
        values = solve_renewal(K1, grid)
        exact = np.array([exact_k1_value(K1, float(t)) for t in grid_times(grid)])
        assert np.abs(values - exact).max() < 1e-4

    def test_halving_step_quarters_error(self):
        # down to fine steps, so round-off must not pollute the O(h^2) order
        errors = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            grid = GridSpec(t_max=500.0, h=h)
            exact = np.array([exact_k1_value(K1, float(t)) for t in grid_times(grid)])
            errors.append(np.abs(solve_renewal(K1, grid) - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_flagship_point_against_series(self):
        got = float(solve_renewal(TABLE, GridSpec(t_max=10.0, h=0.01))[-1])
        assert got == pytest.approx(series_value(TABLE, 10.0), abs=1e-3)
        assert got == pytest.approx(4.023, abs=5e-3)

    def test_cross_method_bound(self):
        h = 0.02
        values = solve_renewal(TABLE, GridSpec(t_max=50.0, h=h))
        gate = max(10.0 * h * h, 1e-6)
        for t in (10.0, 25.0, 50.0):
            index = round(t / h)
            assert abs(values[index] - series_value(TABLE, t)) < gate

    def test_monotone_and_bounded(self):
        h = 0.05
        values = solve_renewal(TABLE, GridSpec(t_max=120.0, h=h))
        assert np.all(np.diff(values) >= -1e-12)
        assert values.max() <= perpetual_value(TABLE) + 10.0 * h * h

    def test_large_stock_stays_nonnegative_and_monotone(self):
        # w is ~0 for t well below k/mu, where FFT round-off would dip below 0
        params = ModelParams(k=200, mu=1.0, r=0.02, cost=FixedCost(1.0))
        values = solve_renewal(params, GridSpec(t_max=500.0, h=0.05))
        assert values.min() >= 0.0
        assert np.diff(values).min() >= -1e-12

    @staticmethod
    def _peak_bytes(grid):
        solve_renewal(TABLE, GridSpec(t_max=10.0, h=0.01))  # lazy numpy.fft import
        tracemalloc.start()
        try:
            solve_renewal(TABLE, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_flagship_fine_grid_memory(self):
        assert self._peak_bytes(GridSpec(t_max=500.0, h=0.01)) < 1.3e6

    def test_flagship_compare_grid_memory(self):
        # the compare grid's kernel support is 1,283 steps: the cdf sweep
        # stops at the bound's 1,389 points, not at a whole part of 8,192
        assert self._peak_bytes(GridSpec(t_max=500.0, h=0.05)) < 0.4e6

    def test_underflowed_step_demand_sweeps_the_grid(self):
        # mu*h underflows to 0, so the support bound cannot size the sweep:
        # it covers the grid's 101 points, where every cdf and value is 0
        params = ModelParams(k=3, mu=1e-200, r=1e-200, cost=FixedCost(1.0))
        values = solve_renewal(params, GridSpec(t_max=1e-180, h=1e-182))
        assert values.tolist() == [0.0] * 101

    def test_underflowed_kernel_mass_solves_to_zero(self):
        # q = alpha^-k underflows to 0 at k ln(alpha) ~ 1920: the exact discrete
        # solution is 0, as are the series and v
        params = ModelParams(k=5000, mu=0.0236, r=0.0346, cost=FixedCost(theta=1.0))
        values = solve_renewal(params, GridSpec(t_max=349.2, h=174.6))
        assert perpetual_value(params) == 0.0
        assert values.tolist() == [0.0, 0.0, 0.0]
        assert series_value(params, 349.2) == 0.0

    def test_underflowed_kernel_mass_keeps_blocks_long(self, fft_lengths):
        # q = 0 leaves C = c_0, a support of one step; the blocks still span
        # _MIN_BLOCK steps, 2 FFTs each, after one Newton inverse of that size
        params = ModelParams(k=5000, mu=0.0236, r=0.0346, cost=FixedCost(theta=1.0))
        grid = GridSpec(t_max=100_000 * 174.6, h=174.6)
        values = solve_renewal(params, grid)
        assert grid.n_steps == 100_000
        assert not values.any()
        assert len(fft_lengths) <= 2 * math.ceil(grid.n_steps / _MIN_BLOCK) + 5 * _MIN_BLOCK.bit_length() + 8

    def test_flagship_fine_grid_transforms(self, fft_lengths):
        # 8 blocks of 6,480 steps: 13 Newton steps of 5 FFTs, the spectra of
        # y, C, G's first block and its constant tail (g turns constant at
        # 6,191, inside the first block), and 2 FFTs a block but 1 for the last
        solve_renewal(TABLE, GridSpec(t_max=500.0, h=0.01))
        assert len(fft_lengths) == 84

    @pytest.mark.parametrize(
        "params, t_max, h, most",
        [(TABLE, 10.0, 0.01, 53), (ModelParams(k=2, mu=1.0, r=0.02, cost=FixedCost(1.0)), 204.7, 0.1, 58)],
    )
    def test_one_block_grid_transforms(self, fft_lengths, params, t_max, h, most):
        # n = 1,000 and 2,047 <= B: 10 and 11 Newton steps of 5 FFTs, the
        # spectra of y and G and one inverse transform; with no carry, no
        # spectrum of C or of G's constant tail is made
        grid = GridSpec(t_max=t_max, h=h)
        solve_renewal(params, grid)
        assert len(fft_lengths) <= most
        assert max(fft_lengths) <= 2 * _fft_length(grid.n_steps)

    def test_long_horizon_of_many_blocks(self):
        # 500,000 steps over a ~4,700-step kernel: about a hundred blocks,
        # each carrying round-off into the next
        params = ModelParams(k=3, mu=1.0, r=1e-4, cost=FixedCost(theta=1.0))
        h = 0.01
        values = solve_renewal(params, GridSpec(t_max=5000.0, h=h))
        for t in np.linspace(500.0, 5000.0, 10):
            assert abs(values[round(t / h)] - series_value(params, float(t))) <= h**2 / 20

    def test_defective_kernel_mass(self):
        # the kernel mass phi^k is below 1 short of rounding (see
        # test_kernel_mass_rounding_to_one), and above 0 short of underflow
        assert 0.0 < effective(TABLE).phi_k < 1.0

    @pytest.mark.parametrize("k, mu, r", [(1, 1.0, 1e-17), (3, 2.0, 1e-18), (10, 1.0, 1e-18)])
    def test_kernel_mass_rounding_to_one(self, k, mu, r):
        # k r/mu below 2^-53: phi_k rounds to 1.0 while v stays finite, and
        # the diagonal 1 - q (A_1 - B_1) is still positive
        params = ModelParams(k=k, mu=mu, r=r, cost=FixedCost(theta=1.0))
        assert effective(params).phi_k == 1.0
        h = 0.05
        grid = GridSpec(t_max=100.0, h=h)
        series = np.array([series_value(params, float(t)) for t in grid_times(grid)[::10]])
        assert np.abs(solve_renewal(params, grid)[::10] - series).max() <= h**2 / 20

    @pytest.mark.parametrize("r", [1e-4, 0.02, 0.5, 2.0])
    @pytest.mark.parametrize("mu_h", [2.5, 4.0, 8.0, 20.0])
    def test_coarse_single_unit_steps_keep_the_stated_bound(self, mu_h, r):
        # every step that tiles the grid is solved, and |w_h - w| stays within
        # min(0.0075 (mu h)^2, 1) v at every grid point (at most 0.77 of it here)
        params = ModelParams(k=1, mu=1.0, r=r, cost=FixedCost(theta=1.0))
        grid = GridSpec(t_max=200 * mu_h, h=mu_h)
        exact = np.array([exact_k1_value(params, float(t)) for t in grid_times(grid)])
        bound = min(0.0075 * mu_h**2, 1.0) * perpetual_value(params)
        assert np.abs(solve_renewal(params, grid) - exact).max() <= bound

    @given(
        k=st.integers(1, 5000),
        h=st.floats(0.0, 18.0).map(lambda e: 10.0**e),
        r=st.floats(-20.0, 3.0).map(lambda e: 10.0**e),
        n=st.integers(1, 100),
    )
    @example(k=2, h=1e17, r=1e-17, n=1)
    @example(k=2, h=1e17, r=1e-17, n=2)
    @example(k=10, h=4e16, r=1e-19, n=100)
    @settings(max_examples=300)
    def test_extreme_grids_stay_within_zero_and_v(self, k, h, r, n):
        # where q rounds to 1 and mu*h is far above k, 1 - q (A_1 - B_1) would
        # cancel to 0 or to a few wrong ulps; the diagonal's sum of nonnegative
        # terms keeps every value finite and in [0, v] (the 1e-320 covers a
        # subnormal v, which has few relative digits)
        params = ModelParams(k=k, mu=1.0, r=r, cost=FixedCost(theta=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = solve_renewal(params, GridSpec(t_max=n * h, h=h))
        assert np.isfinite(values).all()
        assert values.min() >= 0.0
        assert values.max() <= perpetual_value(params) * (1.0 + 1e-9) + 1e-320

    @given(
        k=st.integers(1, 6),
        mu=st.floats(0.3, 3.0),
        r=st.floats(0.01, 0.5),
        theta=st.floats(0.2, 10.0),
    )
    @settings(max_examples=15)
    def test_tracks_series_on_random_models(self, k, mu, r, theta):
        params = ModelParams(k=k, mu=mu, r=r, cost=FixedCost(theta))
        h = 0.05
        values = solve_renewal(params, GridSpec(t_max=20.0, h=h))
        for t in (5.0, 10.0, 20.0):
            index = round(t / h)
            assert abs(values[index] - series_value(params, t)) < max(20.0 * h * h * theta, 1e-6)


class TestAgainstDirectRecursion:
    """The FFT division solves the same discrete equation as the step-by-step
    recursion, up to round-off relative to the curve's size."""

    @staticmethod
    def _check(params, grid):
        values = solve_renewal(params, grid)
        direct = volterra_direct(params, grid)
        assert values.shape == direct.shape == (grid.n_steps + 1,)
        assert np.abs(values - direct).max() <= 1e-12 * np.abs(direct).max()

    @given(
        k=st.integers(1, 30),
        mu=st.floats(0.2, 5.0),
        r=st.floats(1e-5, 0.5),
        h=st.sampled_from([0.1, 0.05, 0.02]),
    )
    @settings(max_examples=25)
    def test_random_models(self, k, mu, r, h):
        # the horizon spans two mean cycles, so w is well above round-off
        n = math.ceil((2.0 * k / mu + 5.0) / h)
        self._check(ModelParams(k=k, mu=mu, r=r, cost=FixedCost(1.0)), GridSpec(t_max=n * h, h=h))

    @given(
        k=st.integers(1, 20),
        mu_h=st.floats(0.03, 1.0),
        log_r=st.floats(-8.0, math.log10(0.5)),
        h=st.sampled_from([0.1, 0.05, 0.02]),
    )
    @settings(max_examples=12)
    def test_random_models_over_many_blocks(self, k, mu_h, log_r, h):
        # horizons of 4 kernel supports (and 4 minimal blocks) run 3 or more
        # blocks; r down to 1e-8 puts q near 1, where no error decays
        mu = mu_h / h
        support = int(np.argmax(_kernel_cdfs(k, mu, h, 10**12)[1] == 1.0)) + 1
        n = 4 * max(support, _MIN_BLOCK)
        assert n > 3 * _fft_length(max(support, _MIN_BLOCK))
        self._check(ModelParams(k=k, mu=mu, r=10.0**log_r, cost=FixedCost(1.0)), GridSpec(t_max=n * h, h=h))

    @pytest.mark.parametrize("params, t_max, h", [(TABLE, 10.0, 0.01), (K1, 100.0, 0.05)])
    def test_single_block_is_the_division(self, params, t_max, h):
        # n <= B = _fft_length(n): one block, W = y G mod x^n with y = 1/C to
        # B terms; at k = 1 the cdfs reach 1.0 within the grid, so G is padded
        # out with theta*q
        grid = GridSpec(t_max=t_max, h=h)
        assert grid.n_steps <= _MIN_BLOCK
        self._check(params, grid)

    def test_flagship_fine_grid(self):
        self._check(TABLE, GridSpec(t_max=500.0, h=0.01))

    @pytest.mark.parametrize("n", [2, 3, 5, 97, 1001, 2047, 2048, 2049, 4095, 4097, 4099])
    def test_odd_prime_and_tiny_grids(self, n):
        # the support is below _MIN_BLOCK, so B = _fft_length(min(n, 2048)):
        # up to 2048 steps are one block (2047 and 2048 of B = 2048), 2049 adds
        # a one-step block, and 4095 and 4097 end one step short of and one
        # step past two full blocks
        params = ModelParams(k=2, mu=1.0, r=0.02, cost=FixedCost(1.0))
        support = int(np.argmax(_kernel_cdfs(2, 1.0, 0.1, 10**12)[1] == 1.0)) + 1
        assert support < _MIN_BLOCK == _fft_length(_MIN_BLOCK)
        self._check(params, GridSpec(t_max=n * 0.1, h=0.1))

    def test_odd_block_runs_at_twice_its_length(self, fft_lengths):
        # L = 5,433 steps: B = 5,625 is odd, and the carries' shift by B
        # negates the odd bins only at the cyclic length 2B, not at the odd
        # 5-smooth length 10,935 >= 2L - 1
        params = ModelParams(k=10, mu=0.59, r=0.02, cost=FixedCost(1.0))
        h = 0.02
        support = int(np.argmax(_kernel_cdfs(10, 0.59, h, 10**12)[1] == 1.0)) + 1
        block = _fft_length(max(support, _MIN_BLOCK))
        assert (support, block) == (5433, 5625)
        grid = GridSpec(t_max=434.64, h=h)
        assert grid.n_steps > 3 * block
        self._check(params, grid)
        # Newton's transforms are at most B long; all longer ones are 2B
        assert {m for m in fft_lengths if m > block} == {2 * block}
        assert sum(m == 2 * block for m in fft_lengths) >= 2 * math.ceil(grid.n_steps / block)

    def test_one_step_grid(self):
        # h = t_max: the system is the single implicit step
        self._check(TABLE, GridSpec(t_max=2.0, h=2.0))
        self._check(K1, GridSpec(t_max=1.0, h=1.0))

    @pytest.mark.parametrize("t_max, floor", [(250.0, 5e-14), (1000.0, 2e-13)])
    def test_round_off_floor_where_q_is_near_one(self, t_max, floor):
        # r = 1e-8 puts q within 1e-8 of 1, where no error decays and the
        # round-off floor grows with t_max; the README states these floors
        params = ModelParams(k=1, mu=1.0, r=1e-8, cost=FixedCost(1.0))
        grid = GridSpec(t_max=t_max, h=0.01)
        exact = volterra_longdouble(params, grid)
        values = solve_renewal(params, grid)
        assert np.abs(values - exact).max() <= floor * np.abs(exact).max()

    def test_zero_horizon_is_the_origin(self):
        values = solve_renewal(TABLE, GridSpec(t_max=0.0, h=0.01))
        assert values.dtype == float
        assert values.tolist() == [0.0]


@pytest.mark.parametrize(
    "params",
    [
        TABLE,
        ModelParams(k=1, mu=0.3, r=0.01, cost=FixedCost(2.5)),
        ModelParams(k=50, mu=2.5, r=0.1, cost=FixedCost(1.0), growth=0.03),
    ],
)
def test_binary_rescaling_is_exact_for_every_method(params):
    # (mu, r, t, h) -> (2 mu, 2 r, t/2, h/2) scales every rate and time by a
    # power of two, so each exponent, ratio and grid point is the same float.
    # simulate_wk is left out: it keys each time's streams by that time's
    # float bits, so t/2 draws other paths.
    doubled = ModelParams(k=params.k, mu=2 * params.mu, r=2 * params.r, cost=params.cost, growth=2 * params.growth)
    for t in (0.5, 10.0, 37.5, 400.0):
        assert series_value(doubled, t / 2) == series_value(params, t)
        assert invert(doubled, t / 2) == invert(params, t)
    assert np.array_equal(
        solve_renewal(doubled, GridSpec(t_max=150.0, h=0.025)), solve_renewal(params, GridSpec(t_max=300.0, h=0.05))
    )
    assert simulate_vk(doubled, 4000, 3) == simulate_vk(params, 4000, 3)
    # the cdf sweep's end depends on mu*h alone, so it stops at the same point
    swept = _kernel_cdfs(params.k, params.mu, 0.05, 10**9)
    for got, want in zip(_kernel_cdfs(params.k, doubled.mu, 0.025, 10**9), swept):
        assert np.array_equal(got, want)
