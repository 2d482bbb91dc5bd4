import itertools
import math
import random

import numpy as np
import pytest

from restock import laplace
from restock.laplace import _A, _gate, _line_sum, _log_qphi, _term_count, _w_hat_raw, invert
from restock.valuation import (
    FixedCost,
    GridSpec,
    LinearCost,
    ModelParams,
    effective,
    exact_k1_value,
    _pole,
    perpetual_value,
    series_value,
)
from restock.volterra import solve_renewal

from oracles import term_count_walk, trapezoid_transform

TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))


def w_hat(s, params: ModelParams):
    """The transform at a point with Re s > 0, as ``invert`` forms it on the line."""
    eff = effective(params)
    return _w_hat_raw(s, _log_qphi(s, eff), eff.theta)


class TestTransform:
    def test_unit_rate_point(self):
        p = ModelParams(k=1, mu=1.0, r=1.0, cost=FixedCost(1.0))
        assert w_hat(0.5, p) == pytest.approx(1.0, rel=1e-13)

    def test_final_value_limit(self):
        # s * w_hat(s) -> v as s -> 0+
        for params in (TABLE, K1):
            s = 1e-9
            assert s * w_hat(s, params) == pytest.approx(perpetual_value(params), rel=1e-6)

    def test_initial_value_limit(self):
        # s * w_hat(s) -> w(0) = 0 as s -> infinity
        assert abs(1e9 * w_hat(1e9, TABLE)) < 1e-6

    def test_conjugate_symmetry(self):
        # the transform of a real function: w_hat(conj s) == conj(w_hat(s)),
        # which is what makes the inversion's imaginary part cancel
        for s in (0.3 + 1.7j, 0.05 + 0.4j, 2.0 + 25.0j):
            assert w_hat(s.conjugate(), TABLE) == w_hat(s, TABLE).conjugate()

    def test_complex_return_type(self):
        assert isinstance(w_hat(1.0 + 1.0j, TABLE), complex)


class TestInvert:
    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0, 50.0, 100.0, 500.0])
    def test_single_unit_relative_accuracy(self, t):
        got = invert(K1, t)
        expected = exact_k1_value(K1, t)
        assert abs(got - expected) <= 1e-6 * abs(expected)

    def test_flagship_point(self):
        assert invert(TABLE, 10.0) == pytest.approx(series_value(TABLE, 10.0), abs=1e-4)
        assert invert(TABLE, 10.0) == pytest.approx(4.023, abs=5e-3)

    @pytest.mark.parametrize("t", [10.0, 20.0, 50.0, 100.0, 200.0, 500.0])
    def test_flagship_grid_tracks_series(self, t):
        value = series_value(TABLE, t)
        assert abs(invert(TABLE, t) - value) < 1e-4 * max(1.0, value)

    def test_zero_horizon_convention(self):
        assert invert(TABLE, 0.0) == 0.0

    def test_zero_horizon_still_validates(self):
        bad = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(1.0), growth=0.02)
        with pytest.raises(ValueError):
            invert(bad, 0.0)

    def test_tiny_horizon_does_not_overflow(self):
        # t = 1e-200 puts every node past |s/mu| = 1e201, where
        # x(2 + x) + y^2 would overflow; w(t) is about theta*q*mu*t there
        assert 0.0 <= invert(K1, 1e-200) <= 1e-199

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            invert(TABLE, -1.0)

    def test_resolutions_agree(self):
        # the returned value and a sum over twice as many terms must stay
        # close wherever we invert
        eff = effective(TABLE)
        for t in (1.0, 10.0, 60.0, 300.0):
            a = invert(TABLE, t)
            b, _ = _line_sum(eff, t, 2 * _term_count(eff, t))
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    @pytest.mark.parametrize("t", [150.0, 200.0])
    def test_large_stock_near_the_pole_ring_is_accurate(self, t):
        # k=200: a fixed Talbot contour returned 1.71e-5 at t=150 (truth
        # 1.09e-6) and 9.741e-3 at t=200 (truth 9.706e-3); the line passes
        # right of the ring of poles about -mu, and both come out ~2e-15 off
        params = ModelParams(k=200, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        assert abs(invert(params, t) - series_value(params, t)) <= 1e-13

    def test_large_stock_contour_near_minus_mu_inverts(self):
        # k=300 at t = 3 mean cycles, where q phi^k exceeds 1e308 near
        # s = -mu; on the line Re L < 0, so no node overflows
        params = ModelParams(k=300, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
        with np.errstate(over="raise"):
            got = invert(params, 900.0)
        assert got == pytest.approx(series_value(params, 900.0), rel=1e-6)

    def test_values_far_below_v_are_checked_against_v(self):
        # k=200, t=20: w is ~1e-123 and the error estimate ~4e-13, which is
        # far below 1e-9 * v; the value is returned, not raised on
        params = ModelParams(k=200, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
        assert abs(invert(params, 20.0)) < 1e-12 * perpetual_value(params)

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_tiny_rate_inverts_small_values(self, t):
        # r = 1e-8 puts v at 1e8, far above the values w < 100 inverted here
        params = ModelParams(k=1, mu=1.0, r=1e-8, cost=FixedCost(theta=1.0))
        expected = exact_k1_value(params, t)
        assert abs(invert(params, t) - expected) <= 1e-6 * expected

    def test_large_v_does_not_widen_the_gate_below_one(self):
        # v = 1e8: a floor of 1e-6 * v alone would pass an error estimate of
        # 0.01 on a value of 0.5; the floor is capped at 1, so the estimate
        # must stay within 1e-3
        v = perpetual_value(ModelParams(k=1, mu=1.0, r=1e-8, cost=FixedCost(theta=1.0)))
        with pytest.raises(ArithmeticError, match="self-check"):
            _gate(0.5, 0.01, v, 1.0)
        assert _gate(0.5, 0.0009, v, 1.0) == 0.5

    @pytest.mark.parametrize("value, estimate", [(math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan), (0.5, math.inf)])
    def test_nonfinite_value_or_estimate_raises(self, value, estimate):
        with pytest.raises(ArithmeticError, match="self-check"):
            _gate(value, estimate, 1.0, 1.0)

    @pytest.mark.parametrize("t", [50.0, 100.0, 250.0, 500.0])
    def test_flagship_grid_passes_the_relative_gate(self, t):
        eff = effective(TABLE)
        value, estimate = _line_sum(eff, t, _term_count(eff, t))
        assert estimate <= 1e-9 * abs(value)
        assert invert(TABLE, t) == value

    @pytest.mark.parametrize(
        "k, mu, r, t",
        [
            (50, 51.16, 0.0574, 12.38), (200, 1.0, 0.02, 400.0), (500, 10.0, 0.02, 150.0), (500, 10.0, 1e-4, 50.0),
            (300, 0.1, 1e-4, 9000.0), (300, 10.0, 0.02, 90.0), (500, 10.0, 1e-4, 315.2),
        ],
    )
    def test_points_a_talbot_contour_missed_are_accurate(self, k, mu, r, t):
        # a fixed Talbot contour passed its gate off by 9.0e-5 to 3.2e-2
        # relative at these points, missing the ring of poles about -mu
        params = ModelParams(k=k, mu=mu, r=r, cost=FixedCost(theta=1.0))
        value = series_value(params, t)
        assert abs(invert(params, t) - value) <= 1e-9 * max(1.0, value)

    def test_contour_is_conjugate_symmetric(self):
        # the two-sided line sum, the mirror nodes evaluated independently,
        # leaves no imaginary residue iff the transform evaluation respects
        # conjugate symmetry; its real part is the one-sided sum invert takes
        eff = effective(TABLE)
        t, m = 25.0, 400
        s = _A / (2.0 * t) + 1j * np.pi / t * np.arange(m)
        signs = (-1.0) ** np.arange(m)

        def sum_over(nodes):
            return np.sum(signs[1:] * _w_hat_raw(nodes, _log_qphi(nodes, eff), eff.theta))

        base = _w_hat_raw(s[0], _log_qphi(s[0], eff), eff.theta)
        total = math.exp(_A / 2.0) / (2.0 * t) * (base + sum_over(s[1:]) + sum_over(np.conj(s[1:])))
        assert abs(total.imag) <= 1e-12 * abs(total.real)
        assert total.real == pytest.approx(series_value(TABLE, t), abs=1e-9)


class TestTermCount:
    def test_closed_form_equals_the_pole_walk(self):
        # k log-uniform to 20,000, a quarter of them k = 3 (mod 4), where the
        # cap (k+1)/4 passes k/4; t from 0.01 to 10^4 mean cycles, and for a
        # random pole p, the t where -Re(alpha s_p) t/alpha = 45 and one ulp
        # either side, where the rule's rounding decides whether p is live
        rng = random.Random(44)
        points, flips = [], 0
        for _ in range(700):
            k = int(math.exp(rng.uniform(0.0, math.log(20_000))))
            if rng.random() < 0.25:
                k = 4 * (k // 4) + 3
            mu = 10.0 ** rng.uniform(-3.0, 3.0)
            eff = effective(ModelParams(k=k, mu=mu, r=mu * 10.0 ** rng.uniform(-10.0, 1.0), cost=FixedCost(1.0)))
            points.append((eff, k / mu * 10.0 ** rng.uniform(-2.0, 4.0)))
            if k >= 3:
                edge = 45.0 / (-_pole(rng.randint(1, (k + 1) // 4 + 1), eff)[1].real / eff.alpha)
                near = [(eff, math.nextafter(edge, 0.0)), (eff, edge), (eff, math.nextafter(edge, math.inf))]
                flips += len({term_count_walk(*point) for point in near}) > 1
                points += near
        assert len(points) >= 2000 and flips >= 100, (len(points), flips)  # the sample crosses the boundary
        assert [point for point in points if _term_count(*point) != term_count_walk(*point)] == []

    @pytest.mark.parametrize("mu", [1e-300, 1.7e308])
    def test_closed_form_at_the_ends_of_the_double_range(self, mu):
        # at mu = 1.7e308, 2 mu overflows, and at t = 5e-324 so does 45 alpha/t
        for k, r, t in itertools.product((1, 3, 7, 1000), (1.0, 1e300), (5e-324, 1e-300, 1.0)):
            eff = effective(ModelParams(k=k, mu=mu, r=r, cost=FixedCost(1.0)))
            assert _term_count(eff, t) == term_count_walk(eff, t), (k, r, t)

    def test_huge_stock_makes_at_most_one_pole_call(self, monkeypatch):
        # the walk would take ~4.8e10 _pole calls here; the count raises past
        # 1,000, so a walking _term_count fails fast instead of hanging
        calls = []

        def counted(p, eff):
            calls.append(p)
            if len(calls) > 1000:
                raise AssertionError("more than 1,000 _pole calls")
            return _pole(p, eff)

        monkeypatch.setattr(laplace, "_pole", counted)
        eff = effective(ModelParams(k=10**12, mu=1.0, r=1e-12, cost=FixedCost(1.0)))
        assert _term_count(eff, 1000.0) == 205
        assert len(calls) <= 1


class TestSweeps:
    def test_sweep_is_accurate_and_never_raises(self):
        # 648 points: k from 1 to 500, the three demand rates and discount
        # rates below, and 12 log-spaced horizons from 0.05 to 100 mean
        # cycles k/mu; a fixed Talbot contour raised at 82 of them and was
        # more than 4e-6 off at 41; the error estimate bounds the error at each
        worst = 0.0
        for k, mu, r in itertools.product((1, 3, 10, 50, 200, 500), (0.1, 1.0, 10.0), (1e-4, 0.02, 0.5)):
            params = ModelParams(k=k, mu=mu, r=r, cost=FixedCost(theta=1.0))
            eff = effective(params)
            for t in np.geomspace(0.05 * k / mu, 100.0 * k / mu, 12):
                t = float(t)
                value = series_value(params, t)
                got, estimate = _line_sum(eff, t, _term_count(eff, t))
                assert invert(params, t) == got
                assert abs(got - value) <= estimate
                worst = max(worst, abs(got - value) / max(1.0, value))
        assert worst <= 1e-9

    def test_long_horizons_at_small_rates_are_accurate(self):
        # t out to 10/rho, where the nodes sit at |s| << mu: ln(s + mu) - ln(mu)
        # cancelled there, and at k=1, mu=10, r=1e-8, t=7.2e7 the value came
        # out 7.4e-4 relative off while passing the gate
        worst = 0.0
        for k, mu, r in itertools.product((1, 3, 10, 50), (0.1, 1.0, 10.0), (1e-8, 1e-6, 1e-4)):
            params = ModelParams(k=k, mu=mu, r=r, cost=FixedCost(theta=1.0))
            for t in np.geomspace(100.0 * k / mu, 10.0 / effective(params).rho, 8):
                value = series_value(params, float(t))
                worst = max(worst, abs(invert(params, float(t)) - value) / max(1.0, value))
        assert worst <= 1e-9


class TestTransformConsistency:
    def test_volterra_curve_transforms_back(self):
        # quadrature of e^(-s t) * w(t) over [0, t_max] must approach w_hat(s)
        # within the tail bound v * e^(-s t_max) / s
        t_max, h = 200.0, 0.01
        grid = GridSpec(t_max=t_max, h=h)
        values = solve_renewal(TABLE, grid)
        times = np.arange(grid.n_steps + 1) * h
        v = perpetual_value(TABLE)
        for s in (0.05, 0.1):
            numeric = trapezoid_transform(times, values, s)
            bound = v * math.exp(-s * t_max) / s
            assert abs(numeric - w_hat(s, TABLE).real) < bound + 1e-4
