import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restock.distributions import GammaLaw, convolution_cdf, poisson_tails

from oracles import counting_pgf, counting_pmf, erlang_cdf, laplace_phi, poisson_tail, sample_renewal_time

# frozen from the Poisson-tail oracle
F10_AT_10 = 0.5420702855281477  # P(Gamma(10,1) <= 10)
F20_AT_10 = 0.0034543419758568087  # P(Gamma(20,1) <= 10)

laws = st.builds(
    GammaLaw,
    shape=st.integers(min_value=1, max_value=30),
    rate=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
)


def cycle_cdf(t: float, law: GammaLaw) -> float:
    """P(Gamma(shape, rate) <= t) = P(Poisson(rate*t) >= shape)."""
    return next(poisson_tails(law.rate * t, law.shape))


class TestGammaLaw:
    def test_rejects_bad_shape(self):
        with pytest.raises((TypeError, ValueError)):
            GammaLaw(shape=0, rate=1.0)
        with pytest.raises(TypeError):
            GammaLaw(shape=2.5, rate=1.0)

    def test_rejects_bad_rate(self):
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                GammaLaw(shape=1, rate=rate)


class TestGammaPdfCdf:
    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            cycle_cdf(-0.1, GammaLaw(1, 1.0))

    def test_cdf_at_zero(self):
        assert cycle_cdf(0.0, GammaLaw(5, 2.0)) == 0.0

    def test_cdf_exponential_point(self):
        assert cycle_cdf(1.0, GammaLaw(1, 1.0)) == pytest.approx(-math.expm1(-1.0), rel=1e-13)

    def test_cdf_matches_poisson_tail_oracle_at_ten(self):
        assert erlang_cdf(10, 1.0, 10.0) == pytest.approx(F10_AT_10, abs=1e-15)
        assert cycle_cdf(10.0, GammaLaw(10, 1.0)) == pytest.approx(F10_AT_10, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 50])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 10.0, 50.0, 100.0])
    def test_poisson_tail_identity_grid(self, n, t):
        # the cdf with unit rate against brute-force Poisson partial sums
        assert abs(cycle_cdf(t, GammaLaw(n, 1.0)) - poisson_tail(n, t)) < 1e-10

    @given(law=laws, t1=st.floats(0.0, 50.0), t2=st.floats(0.0, 50.0))
    def test_cdf_monotone(self, law, t1, t2):
        lo, hi = sorted((t1, t2))
        assert cycle_cdf(hi, law) >= cycle_cdf(lo, law) - 1e-12


def mp_poisson_tail(lam: float, m: int) -> mpmath.mpf:
    """P(Poisson(lam) >= m) = P(m, lam), regularized incomplete gamma at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.gammainc(m, 0, lam, regularized=True)


class TestPoissonTails:
    def test_domain(self):
        for lam in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                next(poisson_tails(lam, 2))
        with pytest.raises(ValueError):
            next(poisson_tails(1.0, 0))
        for step in (2.5, True):
            with pytest.raises(TypeError):
                next(poisson_tails(1.0, step))

    def test_zero_mean_has_no_mass_above_zero(self):
        assert list(itertools.islice(poisson_tails(0.0, 3), 4)) == [0.0] * 4

    @given(lam=st.floats(0.0, 1e4), step=st.integers(1, 500))
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath(self, lam, step):
        for n, got in zip(range(1, 6), poisson_tails(lam, step)):
            exact = mp_poisson_tail(lam, n * step)
            if exact >= 1e-290:
                assert abs(got - exact) <= 1e-12 * exact
            else:
                assert 0.0 <= got <= 2e-290

    @pytest.mark.parametrize("lam, step", [(5.0, 200), (1.0, 2), (2000.0, 10), (1e4, 1)])
    def test_deep_tails_stay_relative(self, lam, step):
        # thresholds far above the mean, where 1 - (lower sum) would be 0
        for n, got in zip(range(1, 41), poisson_tails(lam, step)):
            exact = mp_poisson_tail(lam, n * step)
            if exact >= 1e-290:
                assert abs(got - exact) <= 1e-12 * exact


class TestConvolutions:
    def test_zero_fold_is_one_everywhere(self):
        law = GammaLaw(3, 2.0)
        assert convolution_cdf(0, 0.5, law) == 1.0
        assert convolution_cdf(0, 0.0, law) == 1.0

    @given(law=laws, t=st.floats(0.0, 30.0))
    def test_one_fold_is_the_cdf(self, law, t):
        assert convolution_cdf(1, t, law) == cycle_cdf(t, law)

    def test_two_fold_matches_oracle(self):
        law = GammaLaw(10, 1.0)
        assert erlang_cdf(20, 1.0, 10.0) == pytest.approx(F20_AT_10, abs=1e-15)
        assert convolution_cdf(2, 10.0, law) == pytest.approx(F20_AT_10, abs=1e-12)

    @given(law=laws, n=st.integers(0, 12), t=st.floats(0.0, 40.0))
    def test_stochastic_ordering(self, law, n, t):
        assert convolution_cdf(n + 1, t, law) <= convolution_cdf(n, t, law) + 1e-12

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            convolution_cdf(-1, 1.0, GammaLaw(1, 1.0))


class TestCountingProcess:
    def test_no_replacement_probability(self):
        law = GammaLaw(4, 1.5)
        t = 2.0
        assert counting_pmf(0, t, law) == pytest.approx(1.0 - cycle_cdf(t, law), abs=1e-14)

    def test_nothing_happens_at_time_zero(self):
        assert counting_pmf(0, 0.0, GammaLaw(2, 1.0)) == 1.0

    def test_pmf_one_at_ten_matches_oracle(self):
        value = counting_pmf(1, 10.0, GammaLaw(10, 1.0))
        assert value == pytest.approx(F10_AT_10 - F20_AT_10, abs=1e-12)

    @given(law=laws, t=st.floats(0.0, 30.0), cut=st.integers(0, 25))
    def test_partial_sums_reach_one(self, law, t, cut):
        partial = sum(counting_pmf(n, t, law) for n in range(cut + 1))
        residual = convolution_cdf(cut + 1, t, law)
        assert partial + residual == pytest.approx(1.0, abs=1e-9)

    def test_pgf_at_one_is_one(self):
        assert counting_pgf(7.0, 1.0, GammaLaw(3, 1.0)) == 1.0

    def test_pgf_at_time_zero_is_one(self):
        assert counting_pgf(0.0, 0.3, GammaLaw(3, 1.0)) == 1.0

    def test_pgf_at_zero_is_survival(self):
        law = GammaLaw(2, 1.0)
        t = 3.0
        assert counting_pgf(t, 0.0, law) == pytest.approx(1.0 - cycle_cdf(t, law), abs=1e-12)

    def test_pgf_rejects_bad_arguments(self):
        law = GammaLaw(1, 1.0)
        with pytest.raises(ValueError):
            counting_pgf(1.0, -0.1, law)
        with pytest.raises(ValueError):
            counting_pgf(1.0, 1.5, law)
        with pytest.raises(ValueError):
            counting_pgf(1.0, 0.5, law, tol=0.0)

    @given(
        shape=st.integers(1, 10),
        rate=st.floats(0.1, 3.0),
        t=st.floats(0.0, 10.0),
        s=st.floats(0.0, 0.9),
    )
    @settings(max_examples=25)
    def test_pgf_matches_direct_sum(self, shape, rate, t, s):
        # rate*t <= 30 keeps the count mass inside the 200-term direct sum,
        # whose own tail is then below s^200/(1-s) ~= 7e-9
        law = GammaLaw(shape, rate)
        direct = sum(s**n * counting_pmf(n, t, law) for n in range(200))
        assert counting_pgf(t, s, law, tol=1e-12) == pytest.approx(direct, abs=1e-7)


class TestLaplacePhi:
    def test_total_mass(self):
        assert laplace_phi(0.0, GammaLaw(7, 2.0)) == 1.0

    def test_closed_form_points(self):
        assert laplace_phi(0.02, GammaLaw(10, 1.0)) == pytest.approx(1.02**-10, rel=1e-14)
        assert laplace_phi(1.0, GammaLaw(1, 1.0)) == pytest.approx(0.5, rel=1e-15)

    def test_divergent_region_rejected(self):
        with pytest.raises(ValueError):
            laplace_phi(-1.0, GammaLaw(1, 1.0))
        with pytest.raises(ValueError):
            laplace_phi(-2.5, GammaLaw(3, 2.0))

    @given(law=laws, s1=st.floats(0.001, 50.0), s2=st.floats(0.001, 50.0))
    def test_strictly_decreasing_in_unit_interval(self, law, s1, s2):
        lo, hi = sorted((s1, s2))
        p_lo, p_hi = laplace_phi(lo, law), laplace_phi(hi, law)
        assert 0.0 < p_hi <= p_lo < 1.0
        if hi > lo * (1 + 1e-9):
            assert p_hi < p_lo


class TestSampling:
    def test_shape_one_is_inverse_transform(self):
        key = np.array([123, 0], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(1)[0]
        stream = np.random.Generator(np.random.Philox(key=key))
        assert sample_renewal_time(GammaLaw(1, 1.0), stream) == pytest.approx(-math.log1p(-u), rel=1e-15)

    def test_shape_three_is_scaled_sum(self):
        key = np.array([7, 1], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(3)
        expected = float(-np.log1p(-u).sum() / 2.0)
        stream = np.random.Generator(np.random.Philox(key=key))
        assert sample_renewal_time(GammaLaw(3, 2.0), stream) == pytest.approx(expected, rel=1e-15)

    def test_consumes_exactly_shape_uniforms(self):
        law = GammaLaw(5, 1.0)
        s1 = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
        s2 = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
        sample_renewal_time(law, s1)
        s2.random(5)
        # both streams must now be in the same state
        assert s1.random() == s2.random()

    def test_sample_mean_near_gamma_mean(self):
        law = GammaLaw(10, 1.0)
        stream = np.random.Generator(np.random.Philox(key=np.array([2024, 0], dtype=np.uint64)))
        draws = np.array([sample_renewal_time(law, stream) for _ in range(200_000)])
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - law.mean) < 3.0 * stderr

    @pytest.mark.parametrize("s", [0.02, 0.5, 1.0])
    def test_discount_factor_mean_matches_transform(self, s):
        law = GammaLaw(4, 1.0)
        key = np.array([77, int(s * 100)], dtype=np.uint64)
        stream = np.random.Generator(np.random.Philox(key=key))
        draws = np.array([sample_renewal_time(law, stream) for _ in range(100_000)])
        factors = np.exp(-s * draws)
        stderr = factors.std(ddof=1) / math.sqrt(factors.size)
        assert abs(factors.mean() - laplace_phi(s, law)) < 4.0 * stderr
