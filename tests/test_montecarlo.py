import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from restock import montecarlo
from restock.montecarlo import (
    _BLOCK,
    _VK_PRICE,
    _WK_CLOCK,
    MCEstimate,
    _perpetuity_samples,
    _stream,
    simulate_vk,
    simulate_wk,
)
from restock.valuation import (
    FixedCost,
    LinearCost,
    ModelParams,
    exact_k1_value,
    perpetual_value,
    series_value,
)

from oracles import verify_perpetuity_equation

TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
UNIT = ModelParams(k=1, mu=1.0, r=1.0, cost=FixedCost(theta=1.0))


def combined_stderr(a: MCEstimate, b: MCEstimate) -> float:
    return math.hypot(a.stderr, b.stderr)


class TestValidation:
    def test_horizon_must_be_finite_and_nonnegative(self):
        for t in (-1.0, -1e-300, math.nan):
            with pytest.raises(ValueError, match="finite nonnegative"):
                simulate_wk(TABLE, t, 100, 1)

    def test_zero_horizon_is_exactly_zero_without_draws(self):
        assert simulate_wk(TABLE, 0.0, 100, 1) == MCEstimate(mean=0.0, stderr=0.0, n_paths=0, seed=1)
        assert simulate_wk(TABLE, 0, 100, 1).mean == 0.0
        # the inputs are still checked at t = 0
        with pytest.raises(ValueError, match="n_paths"):
            simulate_wk(TABLE, 0.0, 1, 1)
        with pytest.raises(ValueError, match="seed"):
            simulate_wk(TABLE, 0.0, 100, -1)
        with pytest.raises(TypeError):
            simulate_wk(TABLE, 0.0, 100, 1.5)
        bad = ModelParams(k=1, mu=1.0, r=0.02, cost=LinearCost(a=5.0, b=1.0))
        with pytest.raises(ValueError, match="non-positive replacement payoff"):
            simulate_wk(bad, 0.0, 100, 1)

    def test_infinite_horizon_points_to_the_perpetuity(self):
        with pytest.raises(ValueError, match="simulate_vk"):
            simulate_wk(TABLE, math.inf, 100, 1)
        with pytest.raises(ValueError):
            simulate_wk(TABLE, math.nan, 100, 1)

    def test_paths_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            simulate_wk(TABLE, 1.0, 1, 1)
        with pytest.raises(ValueError):
            simulate_vk(TABLE, 0, 1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            simulate_wk(TABLE, 1.0, 100, -1)
        with pytest.raises(ValueError):
            simulate_wk(TABLE, 1.0, 100, 2**64)
        with pytest.raises(TypeError):
            simulate_wk(TABLE, 1.0, 100, 1.5)


class TestDeterminism:
    def test_wk_bit_identical(self):
        a = simulate_wk(TABLE, 10.0, 40_000, 42)
        b = simulate_wk(TABLE, 10.0, 40_000, 42)
        assert a == b

    def test_vk_bit_identical(self):
        a = simulate_vk(TABLE, 20_000, 7)
        b = simulate_vk(TABLE, 20_000, 7)
        assert a == b

    def test_vk_value_pinned(self):
        # the perpetuity's stream domains, its block size, its roulette
        # window and its standard_gamma cycle draw are part of the recipe: a
        # shifted domain moves this mean by about one stderr (0.03)
        assert simulate_vk(TABLE, 20_000, 7).mean == pytest.approx(41.04698150354203, rel=1e-12)

    def test_seed_changes_result(self):
        a = simulate_wk(TABLE, 10.0, 40_000, 42)
        b = simulate_wk(TABLE, 10.0, 40_000, 43)
        assert a.mean != b.mean

    def test_estimate_echoes_recipe(self):
        est = simulate_wk(TABLE, 10.0, 1234, 99)
        assert est.n_paths == 1234
        assert est.seed == 99


class TestHorizonValue:
    def test_flagship_within_sampling_error(self):
        est = simulate_wk(TABLE, 10.0, 300_000, 42)
        target = series_value(TABLE, 10.0)
        assert abs(est.mean - target) < 4.0 * est.stderr
        assert est.stderr > 0

    def test_single_unit_closed_form(self):
        est = simulate_wk(K1, 50.0, 300_000, 3)
        target = exact_k1_value(K1, 50.0)
        assert abs(est.mean - target) < 4.0 * est.stderr

    def test_flagship_long_horizon_precision(self):
        est = simulate_wk(TABLE, 500.0, 100_000, 42)
        target = series_value(TABLE, 500.0)
        assert est.stderr < 1e-4
        assert abs(est.mean - target) < 4.0 * est.stderr

    def test_saturated_horizon_returns_the_perpetual_value(self):
        # at t = 3000 every path's q^N = 2^-N underflows, so every sample
        # rounds to v and the sampling error vanishes
        est = simulate_wk(UNIT, 3000.0, 100_000, 13)
        v = perpetual_value(UNIT)
        assert abs(est.mean - v) <= 1e-12 * v
        assert est.stderr <= math.ulp(est.mean)

    def test_samples_are_exact_conditional_payouts(self):
        # q within 1e-5 of 1: the closed-form geometric sum must match an
        # explicit term-by-term sum over the same clock draws
        params = ModelParams(k=3, mu=2.0, r=2e-6, cost=FixedCost(theta=1.5))
        t, n_paths, seed = 7.0, 2_000, 19
        cycles = _stream(seed, _WK_CLOCK, 1).poisson(params.mu * t, n_paths) // params.k
        q = (params.mu / (params.mu + params.r)) ** params.k
        reference = math.fsum(1.5 * math.fsum(q**n for n in range(1, int(c) + 1)) for c in cycles) / n_paths
        assert simulate_wk(params, t, n_paths, seed).mean == pytest.approx(reference, rel=1e-12)

    def test_large_stock_memory_stays_linear_in_paths(self):
        params = ModelParams(k=1000, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        tracemalloc.start()
        try:
            simulate_wk(params, 5000.0, 100_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_negligible_horizon_pays_nothing(self):
        est = simulate_wk(TABLE, 1e-6, 50_000, 5)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_samples_nonnegative_and_mean_bounded(self):
        est = simulate_wk(TABLE, 40.0, 100_000, 11)
        assert est.mean >= 0.0
        assert est.mean <= perpetual_value(TABLE) + 5.0 * est.stderr

    def test_stderr_scales_like_root_n(self):
        small = simulate_wk(TABLE, 10.0, 40_000, 21)
        large = simulate_wk(TABLE, 10.0, 160_000, 21)
        ratio = small.stderr / large.stderr
        assert 1.6 <= ratio <= 2.4


class TestPerpetuity:
    def test_unit_value(self):
        est = simulate_vk(UNIT, 150_000, 17)
        assert abs(est.mean - 1.0) < 4.0 * est.stderr

    def test_flagship_value(self):
        est = simulate_vk(TABLE, 150_000, 29)
        assert abs(est.mean - perpetual_value(TABLE)) < 4.0 * est.stderr

    @pytest.mark.parametrize(
        "params", [TABLE, ModelParams(k=60, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))], ids=["flagship", "k60"]
    )
    def test_unbiased_over_seeds(self, params):
        # roulette must leave no bias: over n independent seeds the mean z
        # has standard deviation 1/sqrt(n), so |mean z| < 4/sqrt(n) fails a
        # bias of a few tenths of a stderr (survivors carrying 0.9 c do)
        seeds = range(20)
        v = perpetual_value(params)
        z = [(est.mean - v) / est.stderr for est in (simulate_vk(params, 20_000, seed) for seed in seeds)]
        assert abs(math.fsum(z) / len(z)) < 4.0 / math.sqrt(len(z))

    def test_roulette_dominated_regime(self):
        # q = 1/1.05: a path at the window survives each round with
        # probability ~0.95, so paths spend ~20 rounds in roulette
        params = ModelParams(k=1, mu=1.0, r=0.05, cost=FixedCost(theta=1.0))
        samples = _perpetuity_samples(params, 40_000, 23, _VK_PRICE)
        assert np.all(np.isfinite(samples))
        assert np.all(samples >= 0.0)
        est = simulate_vk(params, 40_000, 23)
        assert est.mean == samples.mean()
        assert abs(est.mean - perpetual_value(params)) < 4.0 * est.stderr

    @pytest.mark.parametrize("k", [3, 60])
    def test_block_draws_fill_the_single_draw(self, k):
        # each round's block of k exponential cycles is one Gamma(k) draw per
        # path; the perpetuity it builds must still price to the closed form
        params = ModelParams(k=k, mu=1.0, r=0.05, cost=FixedCost(theta=1.0))
        est = simulate_vk(params, 40_000, 5)
        assert abs(est.mean - perpetual_value(params)) < 4.0 * est.stderr

    def test_large_stock_draws_in_bounded_memory(self):
        params = ModelParams(k=1000, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        tracemalloc.start()
        try:
            simulate_vk(params, 20_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestPerpetuityBlocks:
    @pytest.mark.parametrize("n_paths", [_BLOCK, _BLOCK + 1, 50_000])
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, n_paths):
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
            runs.append((simulate_vk(TABLE, n_paths, 7), verify_perpetuity_equation(UNIT, n_paths, 3)))
        assert runs[0] == runs[1]

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        # more workers than cores and a short switch interval: a block that
        # two workers both ran, or that none did, shows in the keys used
        claimed = []

        def counting_stream(seed, domain, index):
            claimed.append(index)
            return _stream(seed, domain, index)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(montecarlo, "_stream", counting_stream)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=simulate_vk, args=(UNIT, 12 * _BLOCK, 9), daemon=True)
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert sorted(claimed) == list(range(12))

    def test_a_block_owns_its_paths(self):
        # block 0's samples do not depend on how many blocks follow it
        whole = _perpetuity_samples(TABLE, 2 * _BLOCK + 5, 11, _VK_PRICE)
        first = _perpetuity_samples(TABLE, _BLOCK, 11, _VK_PRICE)
        assert np.array_equal(whole[:_BLOCK], first)

    def test_a_failing_block_raises_without_hanging(self, monkeypatch):
        def failing_stream(seed, domain, index):
            if index == 1:
                raise RuntimeError("block 1 failed")
            return _stream(seed, domain, index)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_stream", failing_stream)
        raised = []

        def call():
            try:
                simulate_vk(TABLE, 3 * _BLOCK, 7)
            except RuntimeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(exc) for exc in raised] == ["block 1 failed"]


class TestPerpetuityEquation:
    def test_unit_case_balances(self):
        lhs, rhs = verify_perpetuity_equation(UNIT, 120_000, 31)
        assert abs(lhs.mean - 1.0) < 4.0 * lhs.stderr
        assert abs(rhs.mean - 1.0) < 4.0 * rhs.stderr
        assert abs(lhs.mean - rhs.mean) < 4.0 * combined_stderr(lhs, rhs)

    def test_flagship_balances(self):
        lhs, rhs = verify_perpetuity_equation(TABLE, 120_000, 37)
        v = perpetual_value(TABLE)
        assert abs(lhs.mean - v) < 4.0 * lhs.stderr
        assert abs(rhs.mean - v) < 4.0 * rhs.stderr
        assert abs(lhs.mean - rhs.mean) < 4.0 * combined_stderr(lhs, rhs)

    def test_rhs_has_real_variance(self):
        _, rhs = verify_perpetuity_equation(UNIT, 5_000, 2)
        assert rhs.stderr > 0.0

    def test_lhs_is_the_plain_perpetuity_run(self):
        lhs, _ = verify_perpetuity_equation(TABLE, 5_000, 2)
        assert lhs == simulate_vk(TABLE, 5_000, 2)

    def test_rerun_bit_identical(self):
        assert verify_perpetuity_equation(TABLE, 5_000, 2) == verify_perpetuity_equation(TABLE, 5_000, 2)

    def test_large_stock_checks_in_bounded_memory(self):
        params = ModelParams(k=1000, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        tracemalloc.start()
        try:
            verify_perpetuity_equation(params, 20_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestGrowthVariant:
    def test_growth_equivalence_bit_exact(self):
        grown = ModelParams(k=4, mu=1.0, r=0.06, cost=FixedCost(2.0), growth=0.02)
        flat = ModelParams(k=4, mu=1.0, r=0.06 - 0.02, cost=FixedCost(2.0))
        assert simulate_wk(grown, 15.0, 30_000, 8) == simulate_wk(flat, 15.0, 30_000, 8)
        assert simulate_vk(grown, 30_000, 8) == simulate_vk(flat, 30_000, 8)
