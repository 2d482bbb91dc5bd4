import copy
import math
import pickle
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from restock import valuation
from restock.montecarlo import MCCurve, MCEstimate
from restock.valuation import (
    EffectiveParams,
    FixedCost,
    GridSpec,
    LinearCost,
    ModelParams,
    asymptotic_value,
    effective,
    exact_k1_value,
    optimal_stock_scan,
    perpetual_value,
    series_value,
)

import oracles
from oracles import residual_value, tail_weight, tilted_kernel_moments

# flagship parameter set: 10 units, unit demand, 2% discounting, unit margins
TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))

# frozen from the Poisson-tail series oracle (tests/oracles.py) at tol 1e-9
V_TABLE = 41.096937539392364
W_TABLE = {
    10.0: 4.023101239540118,
    20.0: 10.663391675536765,
    50.0: 24.21449183830443,
    100.0: 34.7632781254672,
    200.0: 40.205487725865176,
    500.0: 41.09445198383187,
}
# two-term hand oracle for w(10): 9*(q*F*1(10) + q^2*F*2(10))
W10_TWO_TERM = 4.0230999924332345


def params_strategy(max_k: int = 12):
    return st.builds(
        ModelParams,
        k=st.integers(1, max_k),
        mu=st.floats(0.2, 4.0),
        r=st.floats(0.005, 0.6),
        cost=st.floats(0.1, 20.0).map(lambda th: FixedCost(theta=th)),
    )


class TestParamsValidation:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            ModelParams(k=0, mu=1.0, r=0.1, cost=FixedCost(1.0))

    def test_rejects_non_integer_k(self):
        with pytest.raises(TypeError):
            ModelParams(k=2.5, mu=1.0, r=0.1, cost=FixedCost(1.0))

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.inf])
    def test_rejects_bad_mu(self, mu):
        with pytest.raises(ValueError):
            ModelParams(k=1, mu=mu, r=0.1, cost=FixedCost(1.0))

    def test_rejects_negative_growth(self):
        with pytest.raises(ValueError):
            ModelParams(k=1, mu=1.0, r=0.1, cost=FixedCost(1.0), growth=-0.01)

    def test_rejects_bad_linear_cost(self):
        with pytest.raises(ValueError):
            LinearCost(a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            LinearCost(a=1.0, b=0.0)

    def test_rejects_wrong_cost_type(self):
        with pytest.raises(TypeError):
            ModelParams(k=1, mu=1.0, r=0.1, cost=2.0)


class TestEffective:
    def test_flagship_constants(self):
        eff = effective(TABLE)
        assert eff.theta == 9.0
        assert eff.r_eff == 0.02
        assert eff.alpha == pytest.approx(1.02, rel=1e-15)
        assert eff.phi_k == pytest.approx(1.02**-10, rel=1e-13)
        assert eff.rho == pytest.approx(0.02 / 1.02, rel=1e-14)
        assert eff.rho == pytest.approx(1.0 / 51.0, rel=1e-14)
        assert eff.mu0 == pytest.approx(10.2, rel=1e-14)
        assert eff.v == pytest.approx(V_TABLE, rel=1e-12)

    def test_half_discount_unit_value(self):
        eff = effective(ModelParams(k=1, mu=1.0, r=1.0, cost=FixedCost(1.0)))
        assert eff.phi_k == pytest.approx(0.5, rel=1e-15)
        assert eff.v == pytest.approx(1.0, rel=1e-14)

    def test_growth_is_a_rate_shift(self):
        grown = ModelParams(k=1, mu=1.0, r=0.04, cost=FixedCost(1.0), growth=0.02)
        flat = ModelParams(k=1, mu=1.0, r=0.04 - 0.02, cost=FixedCost(1.0))
        assert effective(grown) == effective(flat)

    def test_growth_at_or_above_r_rejected(self):
        p = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(1.0), growth=0.02)
        with pytest.raises(ValueError, match="divergent under cost growth"):
            effective(p)

    def test_nonpositive_linear_payoff_rejected(self):
        p = ModelParams(k=1, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
        with pytest.raises(ValueError, match="non-positive replacement payoff"):
            effective(p)

    @pytest.mark.parametrize("k", [390, 391, 400])
    def test_alpha_power_past_float_range(self, k):
        # k ln(alpha) is 698.8, 700.6 and 716.7: alpha^k - 1 overflows a float
        # at k = 400, where v is subnormal (its ulp is ~1e-12 of v)
        eff = effective(ModelParams(k=k, mu=0.1, r=0.5, cost=FixedCost(1.0)))
        with mpmath.workdps(40):
            exact = float(1 / (mpmath.mpf(6) ** k - 1))
        assert abs(eff.v - exact) <= 1e-12 * exact + 4 * math.ulp(0.0)

    def test_extreme_stock_value_underflows_to_zero(self):
        eff = effective(ModelParams(k=2000, mu=0.1, r=0.5, cost=FixedCost(1.0)))
        assert eff.phi_k == 0.0
        assert eff.v == 0.0

    def test_alpha_power_rounding_to_one_is_named(self):
        # r/mu = 1e-600 underflows, so alpha^k - 1 is 0 and v would divide by it
        with pytest.raises(ValueError, match=r"alpha\^k - 1 rounds to 0"):
            effective(ModelParams(k=1, mu=1e300, r=1e-300, cost=FixedCost(1.0)))

    @pytest.mark.parametrize("mu, r, theta", [(1.0, 1e-10, 1e300), (1e300, 1e-10, 1.0)])
    def test_overflowing_perpetual_value_is_named(self, mu, r, theta):
        # theta / (alpha^k - 1) is past the double range
        with pytest.raises(ValueError, match="perpetual value overflows"):
            effective(ModelParams(k=1, mu=mu, r=r, cost=FixedCost(theta)))

    def test_overflowing_linear_payoff_is_named(self):
        # b*k overflows while v = (b*k - a)/(alpha^k - 1) would be its cause,
        # so the message names the payoff, not the perpetual value
        with pytest.raises(ValueError, match=r"^replacement payoff b\*k - a overflows: b = 1e\+308, k = 10$"):
            effective(ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=0.0, b=1e308)))

    def test_tilted_mean_at_extreme_demand(self):
        # mu^2 overflows a double; k*alpha/mu does not
        assert effective(ModelParams(k=1, mu=1e200, r=1.0, cost=FixedCost(1.0))).mu0 == 1e-200

    @pytest.mark.parametrize("mu, r, rho", [(1e300, 1e300, 5e299), (1e10, 1e300, 1e10), (1e-300, 1e300, 1e-300)])
    def test_tilt_rate_at_extreme_rates(self, mu, r, rho):
        # rho <= min(r, mu) is finite where r*mu overflows, and where alpha does
        assert effective(ModelParams(k=1, mu=mu, r=r, cost=FixedCost(1.0))).rho == rho

    @given(params=params_strategy())
    def test_invariant_identities(self, params):
        eff = effective(params)
        assert eff.alpha == pytest.approx(eff.r_eff / params.mu + 1.0, rel=1e-15)
        assert eff.phi_k == pytest.approx(eff.alpha ** -params.k, rel=1e-12)
        assert eff.rho == pytest.approx(eff.r_eff / eff.alpha, rel=1e-13)
        assert eff.mu0 == pytest.approx(params.k * (eff.r_eff + params.mu) / params.mu**2, rel=1e-13)
        assert eff.v == pytest.approx(eff.theta * eff.phi_k / (1.0 - eff.phi_k), rel=1e-11)
        assert eff.k == params.k
        assert eff.mu == params.mu
        if eff.phi_k > 0.0:
            assert eff.k_log_alpha == pytest.approx(-math.log(eff.phi_k), rel=1e-12)


class TestPerpetualValue:
    def test_flagship(self):
        assert perpetual_value(TABLE) == pytest.approx(41.097, abs=5e-4)
        assert perpetual_value(TABLE) == pytest.approx(V_TABLE, rel=1e-12)

    def test_unit_case(self):
        assert perpetual_value(ModelParams(k=1, mu=1.0, r=1.0, cost=FixedCost(1.0))) == pytest.approx(1.0, rel=1e-14)

    def test_boundary_linear_payoff(self):
        with pytest.raises(ValueError):
            perpetual_value(ModelParams(k=1, mu=1.0, r=1.0, cost=LinearCost(a=1.0, b=1.0)))

    @given(params=params_strategy())
    def test_decreasing_in_r(self, params):
        bumped = ModelParams(k=params.k, mu=params.mu, r=params.r * 1.5, cost=params.cost)
        assert perpetual_value(bumped) < perpetual_value(params)


class TestSeriesValue:
    def test_zero_horizon(self):
        assert series_value(TABLE, 0.0) == 0.0

    def test_flagship_two_term_oracle(self):
        got = series_value(TABLE, 10.0)
        assert got == pytest.approx(W10_TWO_TERM, abs=3e-6)
        assert got == pytest.approx(4.023, abs=5e-3)

    @pytest.mark.parametrize("t,expected", sorted(W_TABLE.items()))
    def test_flagship_grid_frozen(self, t, expected):
        assert series_value(TABLE, t) == pytest.approx(expected, abs=5e-13)
        assert oracles.series_value(10, 1.0, 0.02, 9.0, t, tol=1e-9) == pytest.approx(expected, abs=1e-12)

    def test_long_horizon_approaches_perpetual(self):
        assert series_value(K1, 500.0) == pytest.approx(50.0, abs=5e-3)

    def test_rejects_bad_arguments(self):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                series_value(TABLE, t)

    def test_small_rate_stops_on_the_poisson_tail(self):
        # q = 1/(1 + 1e-6): a geometric stop alone would need ~3e7 terms
        params = ModelParams(k=1, mu=1.0, r=1e-6, cost=FixedCost(theta=1.0))
        value = series_value(params, 10.0)
        assert value == pytest.approx(exact_k1_value(params, 10.0), abs=1e-9)

    def test_deep_tail_term(self):
        # w(5) at k=200 is q * P(Poisson(5) >= 200) to double precision
        params = ModelParams(k=200, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        assert series_value(params, 5.0) == pytest.approx(1.038828971274116e-239, rel=1e-12)

    def test_high_demand_matches_asymptotic(self):
        # mu t = 1e6: ~17,000 pmf steps; every pole but -rho decays like
        # e^(-190 t), so the asymptotic form is exact here
        params = ModelParams(k=10, mu=1e3, r=0.02, cost=LinearCost(a=1.0, b=1.0))
        assert series_value(params, 1e3) == pytest.approx(asymptotic_value(params, 1e3), rel=1e-12)

    def test_long_sum_rounding(self):
        # q near 1 and a value near 1e4: every term of the pmf sum is nonnegative
        params = ModelParams(k=1, mu=1.0, r=1e-8, cost=FixedCost(theta=1.0))
        assert series_value(params, 1e4) == pytest.approx(exact_k1_value(params, 1e4), rel=1e-12)

    @given(params=params_strategy(max_k=8), t1=st.floats(0.0, 80.0), t2=st.floats(0.0, 80.0))
    @settings(max_examples=30)
    def test_monotone_and_bounded(self, params, t1, t2):
        lo, hi = sorted((t1, t2))
        tol = 1e-9
        w_lo = series_value(params, lo)
        w_hi = series_value(params, hi)
        assert w_hi >= w_lo - 2 * tol
        assert w_hi <= perpetual_value(params) + 2 * tol

    @given(
        k=st.integers(1, 10),
        mu=st.floats(0.1, 10.0),
        log_r=st.floats(math.log(1e-8), math.log(0.5)),
        log_cycles=st.floats(math.log(0.05), math.log(100.0)),
    )
    @settings(max_examples=30)
    def test_matches_residue_reference(self, k, mu, log_r, log_cycles):
        # t from 0.05 to 100 mean cycles k/mu, against the adaptive-precision residue sum
        r, t = math.exp(log_r), math.exp(log_cycles) * k / mu
        exact = oracles.residue_value(k, mu, r, float(k), t)
        got = series_value(ModelParams(k=k, mu=mu, r=r, cost=FixedCost(float(k))), t)
        assert abs(got - exact) <= 1e-12 * exact

    @given(
        k=st.integers(50, 2000),
        mu=st.floats(0.1, 10.0),
        log_r=st.floats(math.log(1e-8), math.log(0.5)),
        log_share=st.floats(math.log(1 / 400), math.log(1 / 100)),
    )
    @settings(max_examples=10)
    def test_matches_residue_reference_where_pieces_end_inside_blocks(self, k, mu, log_r, log_share):
        # mu t from k^2/400 to k^2/100: the walk's pieces, ~9 sqrt(mu t) <= 0.9 k
        # steps, are shorter than its blocks of k
        r, t = math.exp(log_r), math.exp(log_share) * k * k / mu
        exact = oracles.residue_value(k, mu, r, float(k), t)
        got = series_value(ModelParams(k=k, mu=mu, r=r, cost=FixedCost(float(k))), t)
        assert abs(got - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("t", [5e5, 1e6, 3e6])
    def test_walk_steps_follow_sqrt_mu_t_not_k(self, pmf_products, t):
        # k = 10^6 >> sqrt(mu t): pieces of ~9 sqrt(mu t) steps end inside a
        # block, where whole blocks would take 10^6 steps or more; at t = 5e5
        # the walk starts 707 sd into the tail and w(t) underflows to 0
        params = ModelParams(k=10**6, mu=1.0, r=1e-6, cost=FixedCost(theta=1.0))
        pmf_products.most = 30 * math.sqrt(t) + 100
        assert 0.0 <= series_value(params, t) < perpetual_value(params)

    def test_long_horizon_returns_v_without_a_walk(self, monkeypatch):
        # r t = 2e10: every weight rounds to 1; a walk would take ~1.7e7 pmf steps
        monkeypatch.setattr(valuation, "_pmf", no_walk)
        monkeypatch.setattr(valuation, "_residue_sum", no_residues)
        v = perpetual_value(TABLE)
        assert abs(series_value(TABLE, 1e12) - v) <= math.ulp(v)

    @pytest.mark.parametrize("t", [0.0, 1.0, 13.7, 100.0, 500.0])
    def test_k1_matches_closed_form(self, t):
        tol = 1e-9
        assert abs(series_value(K1, t) - exact_k1_value(K1, t)) < 10 * tol


def no_walk(*args):
    raise AssertionError("the pmf was evaluated")


def no_residues(*args):
    raise AssertionError("the residue sum was tried")


def walked(params: ModelParams, t: float, monkeypatch) -> float:
    """series_value with the residue sum refusing every point."""
    with monkeypatch.context() as patch:
        patch.setattr(valuation, "_residue_sum", lambda *args: (math.nan, math.inf))
        return series_value(params, t)


# the curve-series benchmark store: k=10, mu=20, r=0.02, a=b=1
HIGH_DEMAND = ModelParams(k=10, mu=20.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
# mu t = 1e10: a walk of ~1.7e6 pmf steps, 7e-13 relative off the closed form
LONG_K1 = ModelParams(k=1, mu=10.0, r=1e-8, cost=FixedCost(theta=1.0))


class TestSeriesRoutes:
    """The residue sum where its rounding bound is within 2^-44 of w, the walk elsewhere."""

    @given(
        k=st.integers(1, 500),
        log_mu=st.floats(math.log(0.1), math.log(10.0)),
        log_r=st.floats(math.log(1e-8), math.log(0.5)),
        log_cycles=st.floats(math.log(0.05), math.log(100.0)),
    )
    def test_residue_bound_holds_where_it_is_accepted(self, k, log_mu, log_r, log_cycles):
        # t from 0.05 to 100 mean cycles k/mu; the oracle sums at the
        # precision the cancellation needs, so k up to 500 is covered
        mu, r = math.exp(log_mu), math.exp(log_r)
        t = math.exp(log_cycles) * k / mu
        eff = effective(ModelParams(k=k, mu=mu, r=r, cost=FixedCost(1.0)))
        value, bound = valuation._residue_sum(eff, t)
        assume(bound <= valuation._RESIDUE_TOL * value)
        assert abs(value - oracles.residue_value(k, mu, r, 1.0, t)) <= bound

    def test_high_demand_grid_takes_the_residue_sum(self, monkeypatch):
        monkeypatch.setattr(valuation, "_pmf", no_walk)
        values = [series_value(HIGH_DEMAND, 2.0 * i) for i in range(1, 51)]
        assert all(0.0 < a < b for a, b in zip(values, values[1:]))

    def test_long_k1_horizon_takes_the_residue_sum(self, monkeypatch):
        monkeypatch.setattr(valuation, "_pmf", no_walk)
        exact = exact_k1_value(LONG_K1, 1e9)
        assert abs(series_value(LONG_K1, 1e9) - exact) <= 1e-15 * exact

    def test_small_demand_and_deep_tails_walk(self, monkeypatch):
        monkeypatch.setattr(valuation, "_residue_sum", no_residues)
        deep = ModelParams(k=200, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        assert series_value(deep, 5.0) == pytest.approx(1.038828971274116e-239, rel=1e-12)
        assert series_value(TABLE, 10.0) == 4.023101239540119  # the README's figure

    @pytest.mark.parametrize("k", [1, 4])
    def test_overflowing_residues_fall_back_to_the_walk(self, monkeypatch, k):
        # theta*mu = 1e309 overflows while v = theta/(alpha^k - 1) does not
        params = ModelParams(k=k, mu=10.0, r=20.0, cost=FixedCost(theta=1e308))
        value = series_value(params, 1.0)
        assert math.isfinite(value)
        assert value == walked(params, 1.0, monkeypatch)

    @pytest.mark.parametrize(
        "params,t",
        [
            (HIGH_DEMAND, 2.0),
            (HIGH_DEMAND, 30.0),
            (HIGH_DEMAND, 100.0),
            (TABLE, 50.0),
            (TABLE, 500.0),
            (ModelParams(k=3, mu=1.0, r=1e-4, cost=FixedCost(theta=3.0)), 2000.0),
            (ModelParams(k=50, mu=10.0, r=0.05, cost=FixedCost(theta=1.0)), 300.0),
            (ModelParams(k=1, mu=10.0, r=1e-3, cost=FixedCost(theta=1.0)), 1e4),
        ],
    )
    def test_routes_agree_where_both_run(self, monkeypatch, params, t):
        with monkeypatch.context() as patch:
            patch.setattr(valuation, "_pmf", no_walk)
            fast = series_value(params, t)
        assert fast == pytest.approx(walked(params, t, monkeypatch), rel=1e-13)

    @pytest.mark.parametrize("t", [2.0, 10.0, 37.5, 100.0])
    def test_binary_rescaling_is_exact_on_both_routes(self, monkeypatch, t):
        # (mu, r, t) -> (2 mu, 2 r, t/2) leaves every exponent and ratio unchanged
        doubled = ModelParams(k=10, mu=40.0, r=0.04, cost=LinearCost(a=1.0, b=1.0))
        assert series_value(doubled, t / 2) == series_value(HIGH_DEMAND, t)
        assert walked(doubled, t / 2, monkeypatch) == walked(HIGH_DEMAND, t, monkeypatch)


    def test_residue_sum_stops_at_its_last_live_pole(self, monkeypatch):
        # it calls poles 1, ..., P, and pole P + 1 decays to exactly 0.0, as
        # do all later ones: value and bound keep every bit of the sum over
        # all k/2 poles.  k log-uniform to 5,000, a quarter k = 3 (mod 4),
        # t from 0.01 to 10^4 mean cycles, then in-gate points at k to 10^5
        calls, pole = [], valuation._pole
        monkeypatch.setattr(valuation, "_pole", lambda j, eff: calls.append(j) or pole(j, eff))
        rng = random.Random(46)
        points = []
        for _ in range(400):
            k = int(math.exp(rng.uniform(0.0, math.log(5000))))
            if rng.random() < 0.25:
                k = 4 * (k // 4) + 3
            mu = 10.0 ** rng.uniform(-3.0, 3.0)
            points.append((k, mu, mu * 10.0 ** rng.uniform(-10.0, 1.0), k / mu * 10.0 ** rng.uniform(-2.0, 4.0)))
        for _ in range(6):
            k, mu = int(10.0 ** rng.uniform(4.0, 5.0)), 10.0 ** rng.uniform(-3.0, 3.0)
            points.append((k, mu, mu * 10.0 ** rng.uniform(-10.0, -3.0), (k / 2) ** 2 / mu * 10.0 ** rng.uniform(0.0, 4.0)))
        for k, mu, r, t in points:
            eff = effective(ModelParams(k=k, mu=mu, r=r, cost=FixedCost(theta=1.0)))
            calls.clear()
            value = valuation._residue_sum(eff, t)
            last = len(calls)
            assert calls == list(range(1, last + 1)), (k, mu, r, t)
            assert value == oracles.residue_sum_all_poles(eff, t), (k, mu, r, t)
            if last < k // 2:
                assert math.exp((pole(last + 1, eff)[1] * (t / eff.alpha)).real) == 0.0, (k, mu, r, t)

    def test_huge_stock_calls_only_its_live_poles(self, monkeypatch):
        # 6 of the 50,000 pole pairs are live at mu t = 1e10; the sum over
        # all of them made 50,000 _pole calls
        calls, pole = [], valuation._pole
        monkeypatch.setattr(valuation, "_pole", lambda j, eff: calls.append(j) or pole(j, eff))
        params = ModelParams(k=10**5, mu=1.0, r=1e-9, cost=FixedCost(theta=1.0))
        assert series_value(params, 1e10) == 9999.046014031168
        assert len(calls) <= 7

    def test_poles_past_the_double_range_add_nothing(self, monkeypatch):
        # mu t = 1e308: the one pole pair's s_1 t overflows; it is dead, so
        # the sum is v plus the j = 0 residue, with a finite bound
        monkeypatch.setattr(valuation, "_pmf", no_walk)
        params = ModelParams(k=3, mu=1e10, r=1e-297, cost=FixedCost(theta=1.0))
        assert series_value(params, 1e298) == asymptotic_value(params, 1e298)


class TestLivePoles:
    @pytest.mark.parametrize("reach", [45.0, 746.0])
    def test_closed_form_equals_the_pole_walk(self, reach):
        # the points of the term count's test, the boundaries at this reach:
        # k log-uniform to 20,000, a quarter k = 3 (mod 4), t from 0.01 to
        # 10^4 mean cycles, and for a random pole p the t where
        # -Re(alpha s_p) t/alpha = reach and one ulp either side
        rng = random.Random(44)
        points, flips = [], 0
        for _ in range(700):
            k = int(math.exp(rng.uniform(0.0, math.log(20_000))))
            if rng.random() < 0.25:
                k = 4 * (k // 4) + 3
            mu = 10.0 ** rng.uniform(-3.0, 3.0)
            eff = effective(ModelParams(k=k, mu=mu, r=mu * 10.0 ** rng.uniform(-10.0, 1.0), cost=FixedCost(1.0)))
            points.append((eff, k / mu * 10.0 ** rng.uniform(-2.0, 4.0)))
            if k >= 2:
                edge = reach / (-valuation._pole(rng.randint(1, k // 2 + 1), eff)[1].real / eff.alpha)
                near = [(eff, math.nextafter(edge, 0.0)), (eff, edge), (eff, math.nextafter(edge, math.inf))]
                flips += len({oracles.live_pole_walk(*point, reach, k // 2) for point in near}) > 1
                points += near
        assert len(points) >= 2000 and flips >= 100, (len(points), flips)  # the sample crosses the boundary
        walks = [oracles.live_pole_walk(eff, t, reach, eff.k // 2) for eff, t in points]
        assert [point for point, walk in zip(points, walks) if valuation._live_poles(*point, reach) != walk] == []
        if reach == 746.0:  # every pole past the count adds exactly 0.0 to the residue sum
            for (eff, t), walk in zip(points, walks):
                for p in range(walk + 1, eff.k // 2 + 1):
                    assert math.exp((valuation._pole(p, eff)[1] * (t / eff.alpha)).real) == 0.0, (eff, t, p)


class TestResidualAndTail:
    def test_residual_at_zero_is_everything(self):
        assert residual_value(TABLE, 0.0) == pytest.approx(V_TABLE, rel=1e-12)

    def test_residual_flagship_at_ten(self):
        assert residual_value(TABLE, 10.0) == pytest.approx(V_TABLE - W_TABLE[10.0], rel=1e-10)

    def test_residual_vanishes_eventually(self):
        late = residual_value(TABLE, 1500.0)
        assert -1e-9 <= late < 1e-5

    def test_residual_decreasing(self):
        values = [residual_value(TABLE, t) for t in (0.0, 5.0, 20.0, 100.0, 400.0)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_tail_weight_endpoints(self):
        assert tail_weight(TABLE, 0.0) == pytest.approx(V_TABLE, rel=1e-12)
        assert tail_weight(TABLE, 2000.0) < 1e-8

    def test_tilted_tail_integral_identity(self):
        # integral of e^(rho s) * tail_weight(s) ds == theta (r+mu) / (r mu)
        eff = effective(TABLE)
        integral = float(
            mpmath.quad(
                lambda s: mpmath.exp(eff.rho * s) * tail_weight(TABLE, float(s)),
                [0, TABLE.k / TABLE.mu, mpmath.inf],
            )
        )
        expected = eff.theta * (eff.r_eff + TABLE.mu) / (eff.r_eff * TABLE.mu)
        assert expected == pytest.approx(9.0 * 1.02 / 0.02, rel=1e-14)
        assert integral == pytest.approx(expected, abs=1e-4)


class TestAsymptoticValue:
    def test_flagship_at_zero_goes_negative(self):
        assert asymptotic_value(TABLE, 0.0) == pytest.approx(V_TABLE - 45.0, rel=1e-12)
        assert asymptotic_value(TABLE, 0.0) == pytest.approx(-3.903, abs=1e-3)

    def test_flagship_at_ten(self):
        expected = V_TABLE - 45.0 * math.exp(-10.0 / 51.0)
        assert asymptotic_value(TABLE, 10.0) == pytest.approx(expected, rel=1e-12)
        assert asymptotic_value(TABLE, 10.0) == pytest.approx(4.109, abs=1e-3)

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 77.7, 500.0])
    def test_exact_for_single_unit(self, t):
        assert asymptotic_value(K1, t) == pytest.approx(exact_k1_value(K1, t), rel=1e-12, abs=1e-12)

    def test_gap_closes_at_long_horizon(self):
        gap = abs(asymptotic_value(TABLE, 200.0) - series_value(TABLE, 200.0))
        assert gap < 0.005 * V_TABLE

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_bad_horizon(self, t):
        with pytest.raises(ValueError):
            asymptotic_value(TABLE, t)

    def test_tilted_residual_limit(self):
        # e^(rho t) * residual -> theta*mu/(k*r) = 45, monotonically on the probe grid
        eff = effective(TABLE)
        distances = []
        for t in (50.0, 100.0, 150.0, 200.0):
            scaled = math.exp(eff.rho * t) * residual_value(TABLE, t)
            distances.append(abs(scaled / 45.0 - 1.0))
        floor = 1e-9
        for earlier, later in zip(distances, distances[1:]):
            assert later <= earlier or (earlier < floor and later < floor)
        assert distances[-1] < 0.05


class TestExactK1:
    def test_zero_horizon(self):
        assert exact_k1_value(K1, 0.0) == 0.0

    def test_limit_is_perpetual_value(self):
        assert exact_k1_value(K1, 1e6) == pytest.approx(50.0, rel=1e-12)
        assert perpetual_value(K1) == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_bad_horizon(self, t):
        with pytest.raises(ValueError):
            exact_k1_value(K1, t)

    def test_unit_rate_point(self):
        p = ModelParams(k=1, mu=1.0, r=1.0, cost=FixedCost(1.0))
        t = 2.0 * math.log(4.0)
        assert exact_k1_value(p, t) == pytest.approx(0.75, rel=1e-14)

    def test_misuse_rejected(self):
        with pytest.raises(ValueError, match="k = 1"):
            exact_k1_value(TABLE, 1.0)


class TestOptimalStock:
    def test_flagship_maximum(self):
        k_star, v_star = optimal_stock_scan(a=1.0, b=1.0, mu=1.0, r=0.02)[:2]
        assert k_star == 10
        assert v_star == pytest.approx(V_TABLE, rel=1e-12)

    def test_no_fixed_cost_prefers_single_unit(self):
        k_star, v_star = optimal_stock_scan(a=0.0, b=1.0, mu=1.0, r=0.02)[:2]
        assert k_star == 1
        assert v_star == pytest.approx(50.0, rel=1e-12)
        # runner-up for context: v_2 = 2/(1.02^2 - 1) ~= 49.505 < 50
        assert 2.0 / (1.02**2 - 1.0) < v_star

    def test_matches_bruteforce_scan(self):
        def brute(a, b, mu, r, k_cap=500):
            best = None
            for k in range(1, k_cap + 1):
                if b * k <= a:
                    continue
                v = (b * k - a) / ((r / mu + 1.0) ** k - 1.0)
                if best is None or v > best[1] + 0.0:
                    if best is None or v > best[1]:
                        best = (k, v)
            return best

        got = optimal_stock_scan(a=5.0, b=1.0, mu=1.0, r=0.02)[:2]
        expected = brute(5.0, 1.0, 1.0, 0.02)
        assert got[0] == expected[0]
        assert got[1] == pytest.approx(expected[1], rel=1e-10)

    @given(
        a=st.floats(0.0, 10.0),
        b=st.floats(0.1, 5.0),
        mu=st.floats(0.2, 4.0),
        r=st.floats(0.01, 0.5),
    )
    @settings(max_examples=30)
    def test_bruteforce_property(self, a, b, mu, r):
        k_star, v_star = optimal_stock_scan(a=a, b=b, mu=mu, r=r, k_max=2000)[:2]
        alpha = r / mu + 1.0
        by_k = {k: (b * k - a) / (alpha**k - 1.0) for k in range(1, 400) if b * k > a}
        best_k = min(by_k, key=lambda k: (-by_k[k], k))
        assert v_star == pytest.approx(by_k[best_k], rel=1e-9)
        # float noise between the two alpha^k evaluations may flip exact ties
        assert k_star == best_k or by_k[k_star] == pytest.approx(by_k[best_k], rel=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="positive payoff"):
            optimal_stock_scan(a=10.0, b=0.5, mu=1.0, r=0.02, k_max=5)

    def test_scan_stops_at_the_proof(self):
        k_star, v_star, scan = optimal_stock_scan(a=1.0, b=1.0, mu=1.0, r=0.02)
        ks = [k for k, _ in scan]
        assert ks == list(range(2, ks[-1] + 1))  # b*k > a from k = 2 on
        assert max(scan, key=lambda kv: kv[1]) == (k_star, v_star)
        # the next candidate's envelope b*k/(alpha^k - 1) proves optimality
        k_next = ks[-1] + 1
        assert k_next / math.expm1(k_next * math.log1p(0.02)) < v_star
        assert ks[-1] / math.expm1(ks[-1] * math.log1p(0.02)) >= v_star

    @pytest.mark.parametrize("k_max, k_star", [(7, 7), (10, 10), (11, 10), (np.int64(7), 7)])
    def test_scan_respects_the_cap(self, k_max, k_star):
        got_k, got_v, scan = optimal_stock_scan(a=1.0, b=1.0, mu=1.0, r=0.02, k_max=k_max)
        assert got_k == k_star
        # the envelope stays above v* past k = 11, so the cap ends each scan
        assert scan[-1][0] == k_max

    def test_scan_starts_at_the_feasibility_edge(self):
        # b*k > a first holds at k = 3 for a = 2, b = 1; k = 2 pays nothing
        k_star, _, scan = optimal_stock_scan(a=2.0, b=1.0, mu=1.0, r=0.02, k_max=3)
        assert scan == [(3, 1.0 / math.expm1(3 * math.log1p(0.02)))]
        assert k_star == 3

    def test_scan_skips_a_rounded_feasibility_edge(self):
        # b*868 == a exactly, yet floor(a/b) = 867 because a/b rounds below
        # 868: the scan must still start past k = 868, where b*k > a
        a, b = 1173.795357256747, 1.3522987986828883
        assert b * 868 == a and math.floor(a / b) == 867
        k_star, _, scan = optimal_stock_scan(a=a, b=b, mu=1.0, r=0.02)
        assert scan[0][0] == 869
        assert (k_star, len(scan)) == (918, 204)

    def test_rejects_bad_inputs(self):
        cases = [
            ({"a": -1.0}, "fixed cost a must be a finite nonnegative real"),
            ({"b": 0.0}, "unit margin b must be a finite positive real"),
            ({"mu": 0.0}, "mu must be a finite positive real"),
            ({"r": -1.0}, "r must be a finite positive real"),
            ({"growth": 0.02}, "perpetual value divergent under cost growth"),
            ({"growth": -0.01}, "growth must be a finite nonnegative real"),
            ({"k_max": 0}, "k_max must be >= 1"),
        ]
        for change, message in cases:
            with pytest.raises(ValueError, match=message):
                optimal_stock_scan(**({"a": 1.0, "b": 1.0, "mu": 1.0, "r": 0.02} | change))

    def test_scan_past_float_range(self):
        # k ln(alpha) = 700.6 at the first feasible k = 391, so every candidate
        # takes the alpha^-k branch; v_k = (k - 390) / (6^k - 1) peaks there
        k_star, v_star, scan = optimal_stock_scan(a=390.0, b=1.0, mu=0.1, r=0.5)
        with mpmath.workdps(40):
            exact = {k: float((k - 390) / (mpmath.mpf(6) ** k - 1)) for k, _ in scan}
        assert k_star == 391
        assert all(abs(v - exact[k]) <= 1e-12 * exact[k] for k, v in scan)
        assert [k for k, _ in scan] == [391, 392, 393, 394]

    @pytest.mark.parametrize("a, b, mu, r", [(1000.0, 1.0, 0.1, 0.5), (1000.0, 0.0248, 0.011, 0.0359)])
    def test_underflowed_optimum_is_named(self, monkeypatch, a, b, mu, r):
        # every candidate value underflows to 0; the scan must stop at the
        # second candidate (envelope 0 <= v* = 0), not run on to k_max = 10^6:
        # one call from effective() at k = 1, then the first candidate's
        # value and the second's envelope
        calls = []
        perpetuity = valuation._perpetuity
        monkeypatch.setattr(valuation, "_perpetuity", lambda *xs: calls.append(xs) or perpetuity(*xs))
        with pytest.raises(ValueError, match="optimal value underflows to 0"):
            optimal_stock_scan(a=a, b=b, mu=mu, r=r)
        assert len(calls) == 3

    @pytest.mark.parametrize("k_max", [2.5, 10.0, True])
    def test_rejects_non_integer_cap(self, k_max):
        # int(2.5) would scan only k <= 2 and True would become 1, silently
        with pytest.raises(TypeError, match="k_max must be an integer"):
            optimal_stock_scan(a=1.0, b=1.0, mu=1.0, r=0.02, k_max=k_max)


class TestMetamorphic:
    OPS = [
        ("perpetual", lambda p: perpetual_value(p)),
        ("series", lambda p: series_value(p, 25.0)),
        ("residual", lambda p: residual_value(p, 25.0)),
        ("tail_weight", lambda p: tail_weight(p, 25.0)),
        ("asymptotic", lambda p: asymptotic_value(p, 25.0)),
    ]

    @pytest.mark.parametrize("name,op", OPS, ids=[n for n, _ in OPS])
    @given(r=st.floats(0.02, 0.8), growth_frac=st.floats(0.0, 0.9), k=st.integers(1, 8))
    @settings(max_examples=25)
    def test_growth_equivalence_is_exact(self, name, op, r, growth_frac, k):
        growth = r * growth_frac
        grown = ModelParams(k=k, mu=1.3, r=r, cost=FixedCost(2.0), growth=growth)
        flat = ModelParams(k=k, mu=1.3, r=r - growth, cost=FixedCost(2.0))
        assert op(grown) == op(flat)

    @pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
    def test_scaling_is_exact_for_binary_factors(self, c):
        base = ModelParams(k=3, mu=1.0, r=0.1, cost=FixedCost(1.5))
        scaled = ModelParams(k=3, mu=1.0, r=0.1, cost=FixedCost(1.5 * c))
        assert perpetual_value(scaled) == c * perpetual_value(base)
        assert asymptotic_value(scaled, 7.0) == c * asymptotic_value(base, 7.0)
        assert tail_weight(scaled, 7.0) == c * tail_weight(base, 7.0)

    @pytest.mark.parametrize("c", [0.25, 4.0, 3.7])
    def test_series_scaling_within_truncation(self, c):
        tol = 1e-9
        base = ModelParams(k=4, mu=1.0, r=0.05, cost=FixedCost(2.0))
        scaled = ModelParams(k=4, mu=1.0, r=0.05, cost=FixedCost(2.0 * c))
        lhs = series_value(scaled, 30.0)
        rhs = c * series_value(base, 30.0)
        assert abs(lhs - rhs) <= (1.0 + c) * tol + 1e-12 * abs(rhs)

    @pytest.mark.parametrize("c", [0.5, 2.0, 16.0])
    def test_optimal_stock_scale_invariant(self, c):
        k1, v1 = optimal_stock_scan(a=1.0, b=1.0, mu=1.0, r=0.02)[:2]
        k2, v2 = optimal_stock_scan(a=c * 1.0, b=c * 1.0, mu=1.0, r=0.02)[:2]
        assert k2 == k1
        assert v2 == c * v1


class TestTiltedKernelMoments:
    def test_flagship(self):
        mass, mean = tilted_kernel_moments(TABLE)
        assert abs(mass - 1.0) < 1e-8
        assert abs(mean - 10.2) < 1e-8

    @given(params=params_strategy(max_k=10))
    @settings(max_examples=15)
    def test_random_parameter_sets(self, params):
        eff = effective(params)
        mass, mean = tilted_kernel_moments(params)
        expected_mean = params.k * (eff.r_eff + params.mu) / params.mu**2
        assert abs(mass - 1.0) < 1e-8
        assert abs(mean - expected_mean) < 1e-8 * max(1.0, expected_mean)


_ESTIMATE = MCEstimate(mean=0.5, stderr=0.01, n_paths=100, seed=7)
_RECORDS = [
    (FixedCost(2.5), "FixedCost(theta=2.5)"),
    (LinearCost(a=1, b=2.0), "LinearCost(a=1.0, b=2.0)"),
    (TABLE, "ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0), growth=0.0)"),
    (GridSpec(t_max=1, h=0.25), "GridSpec(t_max=1.0, h=0.25)"),
    (
        effective(TABLE),
        "EffectiveParams(theta=9.0, r_eff=0.02, alpha=1.02, phi_k=0.8203482998751553, rho=0.0196078431372549, "
        "mu0=10.2, v=41.09693753939241, k=10, mu=1.0, k_log_alpha=0.19802627296179712)",
    ),
    (_ESTIMATE, "MCEstimate(mean=0.5, stderr=0.01, n_paths=100, seed=7)"),
    (MCCurve(estimates=(_ESTIMATE,)), "MCCurve(estimates=(MCEstimate(mean=0.5, stderr=0.01, n_paths=100, seed=7),))"),
]


@pytest.mark.parametrize("record, text", [pytest.param(*pair, id=type(pair[0]).__name__) for pair in _RECORDS])
class TestRecords:
    """The value-record contract of the seven input and result records; each
    repr is the text the records printed as dataclasses."""

    def test_fields_are_read_only(self, record, text):
        for name in record.__slots__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_fields_compare_and_hash_equal(self, record, text):
        fields = [getattr(record, name) for name in record.__slots__]
        twin = type(record)(*fields)
        assert twin is not record and twin == record and hash(twin) == hash(record)
        assert record != tuple(fields)

    def test_repr(self, record, text):
        assert repr(record) == text

    def test_pickle_and_copy_round_trip(self, record, text):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record
