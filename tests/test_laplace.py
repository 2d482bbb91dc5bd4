import cmath
import math

import numpy as np
import pytest

from restock import laplace
from restock.laplace import _NODE_COUNT, _NODE_STEP, _talbot, _talbot_nodes, invert, w_hat
from restock.valuation import FixedCost, LinearCost, ModelParams, exact_k1_value, perpetual_value, series_value
from restock.volterra import GridSpec, solve_renewal

from oracles import trapezoid_transform

TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))


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

    def test_left_half_plane_rejected(self):
        with pytest.raises(ValueError):
            w_hat(0.0, TABLE)
        with pytest.raises(ValueError):
            w_hat(-0.5 + 1.0j, TABLE)

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

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            invert(TABLE, -1.0)

    def test_resolutions_agree(self):
        # the returned 48-node value and a 64-node contour must stay close
        # wherever we invert
        for t in (1.0, 10.0, 60.0, 300.0):
            a = invert(TABLE, t)
            b = _talbot(TABLE, t, 64)
            assert abs(a - b) < 2e-5 * max(1.0, abs(b))

    @pytest.mark.parametrize("t", [150.0, 200.0])
    def test_large_stock_gap_beyond_the_value_raises(self, t):
        # k=200: the fine contour returns 1.71e-5 at t=150 (truth 1.09e-6)
        # and 9.741e-3 at t=200 (truth 9.706e-3); both gaps are below 1e-3
        # absolute but far above 1e-3 of the value
        params = ModelParams(k=200, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        with pytest.raises(ArithmeticError, match="self-check"):
            invert(params, t)

    def test_large_stock_contour_near_minus_mu_inverts(self):
        # k=300 at t = 3 mean cycles: the contour passes near s = -mu, where
        # q phi^k exceeds 1e308; the transform is -theta/s there, not nan
        params = ModelParams(k=300, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
        with np.errstate(over="raise"):
            got = invert(params, 900.0)
        assert got == pytest.approx(series_value(params, 900.0), rel=1e-6)

    def test_values_far_below_v_are_checked_against_v(self):
        # k=200, t=20: w is ~1e-123 and the two contours disagree by ~1e-30,
        # which is far below 1e-9 * v; the value is returned, not raised on
        params = ModelParams(k=200, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
        assert abs(invert(params, 20.0)) < 1e-12 * perpetual_value(params)

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_tiny_rate_inverts_small_values(self, t):
        # r = 1e-8 puts v at 1e8, far above the values w < 100 inverted here
        params = ModelParams(k=1, mu=1.0, r=1e-8, cost=FixedCost(theta=1.0))
        expected = exact_k1_value(params, t)
        assert abs(invert(params, t) - expected) <= 1e-6 * expected

    def test_large_v_does_not_widen_the_gate_below_one(self, monkeypatch):
        # v = 1e8: a floor of 1e-6 * v alone would pass a 0.01 gap on a value
        # of 0.5; the floor is capped at 1, so the gap must stay within 1e-3
        params = ModelParams(k=1, mu=1.0, r=1e-8, cost=FixedCost(theta=1.0))
        fine_nodes = _NODE_COUNT + _NODE_STEP
        monkeypatch.setattr(laplace, "_talbot", lambda p, t, m: 0.51 if m == fine_nodes else 0.5)
        with pytest.raises(ArithmeticError, match="self-check"):
            invert(params, 1.0)
        monkeypatch.setattr(laplace, "_talbot", lambda p, t, m: 0.5009 if m == fine_nodes else 0.5)
        assert invert(params, 1.0) == 0.5009

    @pytest.mark.parametrize("t", [50.0, 100.0, 250.0, 500.0])
    def test_flagship_grid_passes_the_relative_gate(self, t):
        coarse, fine = _talbot(TABLE, t, _NODE_COUNT), _talbot(TABLE, t, _NODE_COUNT + _NODE_STEP)
        assert abs(coarse - fine) <= 3e-6 * abs(fine)
        assert invert(TABLE, t) == fine

    @pytest.mark.xfail(strict=True, reason="Talbot passes its gate off by more than 4e-6 here (ROADMAP item 2b)")
    @pytest.mark.parametrize(
        "k, mu, r, t",
        [(50, 51.16, 0.0574, 12.38), (200, 1.0, 0.02, 400.0), (500, 10.0, 0.02, 150.0), (500, 10.0, 1e-4, 50.0)],
    )
    def test_gated_value_is_accurate_or_raises(self, k, mu, r, t):
        # today 7.7e-4, 7.4e-6, 1.19e-3 and 2.81e-3 off: each row passes the
        # coarse/fine gate, so the contract below does not yet hold
        params = ModelParams(k=k, mu=mu, r=r, cost=FixedCost(theta=1.0))
        try:
            got = invert(params, t)
        except ArithmeticError:
            return
        assert abs(got - series_value(params, t)) <= 4e-6

    def test_contour_is_conjugate_symmetric(self):
        # evaluating the full symmetric contour leaves no imaginary residue
        from restock.laplace import _w_hat_raw
        from restock.valuation import effective

        eff = effective(TABLE)
        t, m = 25.0, 32
        s, weights, r_scale = _talbot_nodes(t, m)
        upper = weights[1:] * _w_hat_raw(s[1:], eff, TABLE.k, TABLE.mu)
        # mirror nodes evaluated independently; equals conj(upper) iff the
        # transform evaluation respects conjugate symmetry
        mirror = np.conj(weights[1:]) * _w_hat_raw(np.conj(s[1:]), eff, TABLE.k, TABLE.mu)
        base = weights[0] * _w_hat_raw(s[0], eff, TABLE.k, TABLE.mu)
        total = (r_scale / m) * (base + 0.5 * np.sum(upper + mirror))
        assert abs(total.imag) <= 1e-8 * max(1.0, abs(total.real))
        assert total.real == pytest.approx(series_value(TABLE, t), abs=1e-5)


class TestTransformConsistency:
    def test_volterra_curve_transforms_back(self):
        # quadrature of e^(-s t) * w(t) over [0, t_max] must approach w_hat(s)
        # within the tail bound v * e^(-s t_max) / s
        t_max, h = 200.0, 0.01
        curve = solve_renewal(TABLE, GridSpec(t_max=t_max, h=h))
        v = perpetual_value(TABLE)
        for s in (0.05, 0.1):
            numeric = trapezoid_transform(curve.times, curve.values, s)
            bound = v * math.exp(-s * t_max) / s
            assert abs(numeric - w_hat(s, TABLE).real) < bound + 1e-4
