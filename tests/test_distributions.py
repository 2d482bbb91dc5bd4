"""Gamma cdfs from the one primitive, ``erlang_cdf_grid``, against
brute-force Poisson partial sums and 50-digit mpmath, and the checks of
``convolution_cdf``, which stays only as a name the benchmark traces."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restock.valuation import convolution_cdf
from restock.volterra import erlang_cdf_grid

from oracles import erlang_cdf, poisson_tail

# frozen from the Poisson-tail oracle
F10_AT_10 = 0.5420702855281477  # P(Gamma(10,1) <= 10)
F20_AT_10 = 0.0034543419758568087  # P(Gamma(20,1) <= 10)

# (shape, rate) of a Gamma cycle law
laws = st.tuples(st.integers(min_value=1, max_value=30), st.floats(min_value=0.05, max_value=20.0, allow_nan=False))


def cycle_cdf(t: float, shape: int, rate: float) -> float:
    """P(Gamma(shape, rate) <= t) = P(Poisson(rate*t) >= shape)."""
    return float(erlang_cdf_grid(shape, rate, [t])[0][0])


class TestGammaPdfCdf:
    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            cycle_cdf(-0.1, 1, 1.0)

    def test_cdf_at_zero(self):
        assert cycle_cdf(0.0, 5, 2.0) == 0.0

    def test_cdf_exponential_point(self):
        assert cycle_cdf(1.0, 1, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-13)

    def test_cdf_matches_poisson_tail_oracle_at_ten(self):
        assert erlang_cdf(10, 1.0, 10.0) == pytest.approx(F10_AT_10, abs=1e-15)
        assert cycle_cdf(10.0, 10, 1.0) == pytest.approx(F10_AT_10, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 50])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 10.0, 50.0, 100.0])
    def test_poisson_tail_identity_grid(self, n, t):
        # the cdf with unit rate against brute-force Poisson partial sums
        assert abs(cycle_cdf(t, n, 1.0) - poisson_tail(n, t)) < 1e-10

    @given(law=laws, t1=st.floats(0.0, 50.0), t2=st.floats(0.0, 50.0))
    def test_cdf_monotone(self, law, t1, t2):
        lo, hi = sorted((t1, t2))
        assert cycle_cdf(hi, *law) >= cycle_cdf(lo, *law) - 1e-12


def mp_poisson_tail(lam: float, m: int) -> mpmath.mpf:
    """P(Poisson(lam) >= m) = P(m, lam), regularized incomplete gamma at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.gammainc(m, 0, lam, regularized=True)


class TestPoissonTails:
    """erlang_cdf_grid(m, 1, [lam]) = P(Poisson(lam) >= m) and >= m + 1."""

    def test_domain(self):
        # convolution_cdf's own checks: n, t, and its cycle law's shape
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                convolution_cdf(1, t, 2, 1.0)
        with pytest.raises(ValueError):
            convolution_cdf(1, 1.0, 0, 1.0)
        for n in (2.5, True):
            with pytest.raises(TypeError):
                convolution_cdf(n, 1.0, 2, 1.0)

    def test_zero_mean_has_no_mass_above_zero(self):
        assert [cycle_cdf(0.0, 3 * n, 1.0) for n in range(1, 5)] == [0.0] * 4

    @given(lam=st.floats(0.0, 1e4), step=st.integers(1, 500))
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath(self, lam, step):
        # both outputs: the solver's panel masses come from the first, its
        # first moments from the second
        for n in range(1, 6):
            got = erlang_cdf_grid(n * step, 1.0, [lam])
            for m, values in ((n * step, got[0]), (n * step + 1, got[1])):
                exact = mp_poisson_tail(lam, m)
                if exact >= 1e-290:
                    assert abs(values[0] - exact) <= 1e-12 * exact
                else:
                    assert 0.0 <= values[0] <= 2e-290

    @pytest.mark.parametrize("lam, step", [(5.0, 200), (1.0, 2), (2000.0, 10), (1e4, 1)])
    def test_deep_tails_stay_relative(self, lam, step):
        # thresholds far above the mean, where 1 - (lower sum) would be 0
        for n in range(1, 41):
            got = cycle_cdf(lam, n * step, 1.0)
            exact = mp_poisson_tail(lam, n * step)
            if exact >= 1e-290:
                assert abs(got - exact) <= 1e-12 * exact


class TestConvolutions:
    """The n-fold convolution of Gamma(shape, rate) is Gamma(n*shape, rate)."""

    def test_zero_fold_is_one_everywhere(self):
        assert convolution_cdf(0, 0.5, 3, 2.0) == 1.0
        assert convolution_cdf(0, 0.0, 3, 2.0) == 1.0

    def test_one_call_into_the_primitive(self):
        assert convolution_cdf(3, 7.5, 4, 1.3) == erlang_cdf_grid(12, 1.3, [7.5])[0][0]

    @given(law=laws, t=st.floats(0.0, 30.0))
    def test_one_fold_is_the_cdf(self, law, t):
        shape, rate = law
        assert abs(cycle_cdf(t, shape, rate) - erlang_cdf(shape, rate, t)) < 1e-12

    def test_two_fold_matches_oracle(self):
        assert erlang_cdf(20, 1.0, 10.0) == pytest.approx(F20_AT_10, abs=1e-15)
        assert cycle_cdf(10.0, 2 * 10, 1.0) == pytest.approx(F20_AT_10, abs=1e-12)

    @given(law=laws, n=st.integers(0, 12), t=st.floats(0.0, 40.0))
    def test_stochastic_ordering(self, law, n, t):
        shape, rate = law
        n_fold = cycle_cdf(t, n * shape, rate) if n else 1.0
        assert cycle_cdf(t, (n + 1) * shape, rate) <= n_fold + 1e-12

    def test_far_past_the_mean(self):
        # rate*t above shape * 2^53: the pmf anchor underflows to 0, not to inf
        assert cycle_cdf(1e30, 10, 1.0) == 1.0
        assert cycle_cdf(1e300, 2 * 3, 2.0) == 1.0

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            convolution_cdf(-1, 1.0, 1, 1.0)
