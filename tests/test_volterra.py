import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poisson_tail, volterra_direct
from restock.erlang import erlang_cdf_grid
from restock.valuation import (
    FixedCost, LinearCost, ModelParams, effective, exact_k1_value, perpetual_value, series_value,
)
from restock.volterra import GridSpec, _fft_length, _series_divide, solve_renewal

TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))


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
        # every size exercises a different Newton schedule and set of lengths
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
            assert np.abs(_series_divide(g, c) - direct).max() <= 1e-14 * np.abs(direct).max()


class TestSolveRenewal:
    def test_value_starts_at_zero(self):
        curve = solve_renewal(TABLE, GridSpec(t_max=5.0, h=0.05))
        assert curve.values[0] == 0.0
        assert curve.method == "volterra"

    def test_single_unit_matches_closed_form(self):
        grid = GridSpec(t_max=500.0, h=0.05)
        curve = solve_renewal(K1, grid)
        exact = np.array([exact_k1_value(K1, float(t)) for t in curve.times])
        assert np.abs(curve.values - exact).max() < 1e-4

    def test_halving_step_quarters_error(self):
        # down to fine steps, so round-off must not pollute the O(h^2) order
        errors = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            curve = solve_renewal(K1, GridSpec(t_max=500.0, h=h))
            exact = np.array([exact_k1_value(K1, float(t)) for t in curve.times])
            errors.append(np.abs(curve.values - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_flagship_point_against_series(self):
        curve = solve_renewal(TABLE, GridSpec(t_max=10.0, h=0.01))
        got = float(curve.values[-1])
        assert got == pytest.approx(series_value(TABLE, 10.0), abs=1e-3)
        assert got == pytest.approx(4.023, abs=5e-3)

    def test_cross_method_bound(self):
        h = 0.02
        curve = solve_renewal(TABLE, GridSpec(t_max=50.0, h=h))
        gate = max(10.0 * h * h, 1e-6)
        for t in (10.0, 25.0, 50.0):
            index = round(t / h)
            assert abs(curve.values[index] - series_value(TABLE, t)) < gate

    def test_monotone_and_bounded(self):
        h = 0.05
        curve = solve_renewal(TABLE, GridSpec(t_max=120.0, h=h))
        assert np.all(np.diff(curve.values) >= -1e-12)
        assert curve.values.max() <= perpetual_value(TABLE) + 10.0 * h * h

    def test_large_stock_stays_nonnegative_and_monotone(self):
        # w is ~0 for t well below k/mu, where FFT round-off would dip below 0
        params = ModelParams(k=200, mu=1.0, r=0.02, cost=FixedCost(1.0))
        values = solve_renewal(params, GridSpec(t_max=500.0, h=0.05)).values
        assert values.min() >= 0.0
        assert np.diff(values).min() >= -1e-12

    def test_flagship_fine_grid_memory(self):
        grid = GridSpec(t_max=500.0, h=0.01)
        solve_renewal(TABLE, GridSpec(t_max=10.0, h=0.01))  # lazy numpy.fft import
        tracemalloc.start()
        try:
            solve_renewal(TABLE, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_underflowed_kernel_mass_solves_to_zero(self):
        # q = alpha^-k underflows to 0 at k ln(alpha) ~ 1920: the exact discrete
        # solution is 0, as are the series and v
        params = ModelParams(k=5000, mu=0.0236, r=0.0346, cost=FixedCost(theta=1.0))
        curve = solve_renewal(params, GridSpec(t_max=349.2, h=174.6))
        assert perpetual_value(params) == 0.0
        assert curve.values.tolist() == [0.0, 0.0, 0.0]
        assert series_value(params, 349.2) == 0.0

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
        curve = solve_renewal(params, GridSpec(t_max=100.0, h=h))
        series = np.array([series_value(params, float(t)) for t in curve.times[::10]])
        assert np.abs(curve.values[::10] - series).max() <= h**2 / 20

    def test_single_unit_step_bound(self):
        # h * phi * mu / 2 >= 1 must be refused for k = 1
        with pytest.raises(ValueError, match="step too large"):
            solve_renewal(K1, GridSpec(t_max=10.0, h=2.5))

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
        curve = solve_renewal(params, GridSpec(t_max=20.0, h=h))
        for t in (5.0, 10.0, 20.0):
            index = round(t / h)
            assert abs(curve.values[index] - series_value(params, t)) < max(20.0 * h * h * theta, 1e-6)


class TestAgainstDirectRecursion:
    """The FFT division solves the same discrete equation as the step-by-step
    recursion, up to round-off relative to the curve's size."""

    @staticmethod
    def _check(params, grid):
        curve = solve_renewal(params, grid)
        times, direct = volterra_direct(params, grid)
        assert np.array_equal(curve.times, times)
        assert np.abs(curve.values - direct).max() <= 1e-12 * np.abs(direct).max()

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

    def test_flagship_fine_grid(self):
        self._check(TABLE, GridSpec(t_max=500.0, h=0.01))

    @pytest.mark.parametrize("n", [2, 3, 5, 97, 1001, 4099])
    def test_odd_prime_and_tiny_grids(self, n):
        params = ModelParams(k=2, mu=1.0, r=0.02, cost=FixedCost(1.0))
        self._check(params, GridSpec(t_max=n * 0.1, h=0.1))

    def test_one_step_grid(self):
        # h = t_max: the system is the single implicit step
        self._check(TABLE, GridSpec(t_max=2.0, h=2.0))
        self._check(K1, GridSpec(t_max=1.0, h=1.0))

    def test_zero_horizon_is_the_origin(self):
        curve = solve_renewal(TABLE, GridSpec(t_max=0.0, h=0.01))
        assert curve.times.tolist() == [0.0]
        assert curve.values.tolist() == [0.0]
