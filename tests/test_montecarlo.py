import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from restock import montecarlo
from restock.montecarlo import (
    _BLOCK,
    _VK_PRICE,
    _WK_CLOCK,
    MCCurve,
    MCEstimate,
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

from oracles import perpetuity_totals, verify_perpetuity_equation

TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
UNIT = ModelParams(k=1, mu=1.0, r=1.0, cost=FixedCost(theta=1.0))


def combined_stderr(a: MCEstimate, b: MCEstimate) -> float:
    return math.hypot(a.stderr, b.stderr)


def assert_estimates(est: MCEstimate, samples) -> None:
    """The merged blocks match the whole sample's exactly rounded mean and its stderr."""
    n = len(samples)
    reference = math.fsum(samples) / n
    spread = math.sqrt(math.fsum((x - reference) ** 2 for x in samples) / (n - 1) / n)
    assert est.n_paths == n
    assert est.mean == pytest.approx(reference, rel=1e-12)
    assert est.stderr == pytest.approx(spread, rel=1e-9)


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
        # window and its gamma cycle draw are part of the recipe: a
        # shifted domain moves this mean by about one stderr (0.03)
        assert simulate_vk(TABLE, 20_000, 7).mean == pytest.approx(41.01950816360203, rel=1e-12)

    def test_seed_changes_result(self):
        a = simulate_wk(TABLE, 10.0, 40_000, 42)
        b = simulate_wk(TABLE, 10.0, 40_000, 43)
        assert a.mean != b.mean

    def test_estimate_echoes_recipe(self):
        est = simulate_wk(TABLE, 10.0, 1234, 99)
        assert est.n_paths == 1234
        assert est.seed == 99


def ks_uniform_pvalue(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov p-value of u against Uniform(0, 1), by the asymptotic
    series with Stephens' small-sample correction (Numerical Recipes, 14.3)."""
    n = len(u)
    u = np.sort(u)
    d = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return min(1.0, 2.0 * math.fsum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 101)))


class TestStreams:
    T50 = int(np.float64(50.0).view(np.uint64))
    T50_UP = int(np.nextafter(50.0, math.inf).view(np.uint64))

    @pytest.mark.parametrize(
        "key, other",
        [
            ((2**32, 0, 0), (0, 0, 1)),
            ((1, 0, 0, T50), (1, 0, 0, T50_UP)),
            ((1, 0, 0), (2, 0, 0)),
            ((1, 0, 0), (1, 2, 0)),
            ((1, 0, 0), (1, 0, 1)),
            ((1, 0, 0), (1, 0, 0, 1)),
            ((2**64 - 1, 0, 0), (2**64 - 2, 0, 0)),
        ],
        ids=["seed-2^32-vs-index-1", "t-50-vs-next-float", "seed", "domain", "index", "high", "top-seed"],
    )
    def test_keys_one_word_apart_draw_apart(self, key, other):
        assert _stream(*key).random() != _stream(*other).random()

    def test_same_key_draws_the_same(self):
        # t's bits as an int, or as the numpy uint64 that simulate_wk passes
        highs = (self.T50, self.T50, np.float64(50.0).view(np.uint64))
        first, *others = [_stream(5, _WK_CLOCK, 7, high).random(8) for high in highs]
        assert all(np.array_equal(first, other) for other in others)

    def test_recipe_pin(self):
        # SFC64 seeded by SeedSequence over the key's six 32-bit words, low half first
        expected = [0.08767235324133416, 0.004705570107886747, 0.09900022679517528, 0.05747588192447273]
        assert _stream(3, 2, 0).random(4).tolist() == expected

    def test_adjacent_block_streams_look_independent(self):
        # the first uniform of 4,096 consecutive block streams: uniform, and
        # no correlation between neighbours beyond 4 standard errors
        u = np.array([_stream(11, _VK_PRICE, b).random() for b in range(4096)])
        assert ks_uniform_pvalue(u) > 1e-3
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 4.0 / math.sqrt(len(u))

    def test_naive_integer_key_collides(self):
        # why _stream splits every key word in two (its own keys for this
        # case draw apart, above): SeedSequence takes 2^32 as the two words
        # [0, 1] and fills a short key out with zero words, so the plain
        # integer lists [seed, index, high] key seed 2^32 and index 1 alike
        def naive(seed, index):
            return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, index, 0]))).random()

        assert naive(2**32, 0) == naive(0, 1)


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
        # explicit term-by-term sum over the same clock draws, block b's
        # drawn from (seed, _WK_CLOCK, b) with t's bits as the key's high
        # word, and the merged blocks must match the whole sample's mean and
        # stderr
        params = ModelParams(k=3, mu=2.0, r=2e-6, cost=FixedCost(theta=1.5))
        t, n_paths, seed = 7.0, _BLOCK + 2_000, 19
        bits = np.float64(t).view(np.uint64)
        sizes = (_BLOCK, n_paths - _BLOCK)
        cycles = np.concatenate(
            [_stream(seed, _WK_CLOCK, b, bits).poisson(params.mu * t, size) // params.k for b, size in enumerate(sizes)]
        )
        q = (params.mu / (params.mu + params.r)) ** params.k
        payouts = [1.5 * math.fsum(q**n for n in range(1, int(c) + 1)) for c in cycles]
        assert_estimates(simulate_wk(params, t, n_paths, seed), payouts)

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


class TestHorizonGrid:
    TIMES = (10.0, 0.0, 50.0, 500.0, 2.5)
    N_PATHS = 2 * _BLOCK + 7

    def test_scalar_call_equals_its_grid_entry(self):
        curve = simulate_wk(TABLE, list(self.TIMES), self.N_PATHS, 42)
        assert isinstance(curve, MCCurve)
        assert curve.estimates == tuple(simulate_wk(TABLE, t, self.N_PATHS, 42) for t in self.TIMES)
        assert curve.n_paths == 4 * self.N_PATHS
        assert simulate_wk(TABLE, np.array(self.TIMES), self.N_PATHS, 42) == curve

    def test_estimate_does_not_depend_on_the_other_times(self):
        whole = dict(zip(self.TIMES, simulate_wk(TABLE, self.TIMES, self.N_PATHS, 7).estimates))
        for times in (self.TIMES[::-1], (500.0,), (2.5, 50.0), (50.0, 50.0, 0.0, 50.0)):
            curve = simulate_wk(TABLE, times, self.N_PATHS, 7)
            assert curve.estimates == tuple(whole[t] for t in times)

    def test_curve_does_not_depend_on_the_worker_count(self, monkeypatch):
        curves = []
        for workers in (1, 2):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
            curves.append(simulate_wk(TABLE, self.TIMES, self.N_PATHS, 3))
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, count, usable):
        # macOS and Windows have no sched_getaffinity; os.cpu_count may be None
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: count)
        assert montecarlo._usable_cpus() == usable

    def test_every_block_lands_once_under_contention(self, monkeypatch):
        # more workers than cores and a short switch interval: a block result
        # lost or written to another block's slot changes the curve
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        expected = simulate_wk(TABLE, self.TIMES, self.N_PATHS, 5)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: result.append(simulate_wk(TABLE, self.TIMES, self.N_PATHS, 5)), daemon=True
            )
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert result == [expected]

    def test_empty_and_all_zero_grids_draw_nothing(self):
        assert simulate_wk(TABLE, [], 100, 1) == MCCurve(estimates=())
        zero = MCEstimate(mean=0.0, stderr=0.0, n_paths=0, seed=1)
        assert simulate_wk(TABLE, (0.0, 0), 100, 1) == MCCurve(estimates=(zero, zero))

    def test_grid_memory_stays_per_block(self):
        # 20 times x 100,000 paths: blocks are reduced as they finish, so
        # the grid stays under the single-time bound of 10 MiB
        params = ModelParams(k=1000, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
        times = [250.0 * i for i in range(1, 21)]
        tracemalloc.start()
        try:
            curve = simulate_wk(params, times, 100_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve.n_paths == 20 * 100_000
        assert peak < 10 * 2**20


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
        samples = perpetuity_totals(params, 40_000, 23, _VK_PRICE)
        assert np.all(np.isfinite(samples))
        assert np.all(samples >= 0.0)
        est = simulate_vk(params, 40_000, 23)
        assert_estimates(est, samples)
        assert abs(est.mean - perpetual_value(params)) < 4.0 * est.stderr

    @pytest.mark.parametrize("k", [3, 60])
    def test_block_draws_fill_the_single_draw(self, k):
        # each round's block of k exponential cycles is one Gamma(k) draw per
        # path; the perpetuity it builds must still price to the closed form
        params = ModelParams(k=k, mu=1.0, r=0.05, cost=FixedCost(theta=1.0))
        est = simulate_vk(params, 40_000, 5)
        assert abs(est.mean - perpetual_value(params)) < 4.0 * est.stderr

    def test_round_cap_admits_a_slow_discount(self, monkeypatch):
        # k=1, mu=1, r=1e-4: about 45,000 rounds a path (3.0-3.2 s at 2,000
        # paths on a 2-vCPU Xeon), within the cap; the blocks are stubbed
        sizes = []

        def unit_totals(eff, stream, size, unit):
            sizes.append(size)
            return np.full(size, 1.0 / unit)  # totals of 1.0 in the block's unit

        monkeypatch.setattr(montecarlo, "_perpetuity_block", unit_totals)
        est = simulate_vk(ModelParams(k=1, mu=1.0, r=1e-4, cost=FixedCost(theta=1.0)), 2_000, 1)
        assert (sizes, est.mean) == ([2_000], 1.0)

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
        # block b's paths are one draw on (seed, _VK_PRICE, b) whatever
        # blocks follow it, and the estimate is the merge of the blocks
        whole = perpetuity_totals(TABLE, 2 * _BLOCK + 5, 11, _VK_PRICE)
        assert_estimates(simulate_vk(TABLE, 2 * _BLOCK + 5, 11), whole)
        assert_estimates(simulate_vk(TABLE, _BLOCK, 11), whole[:_BLOCK])

    def test_memory_stays_one_block_per_worker(self, monkeypatch):
        # each block's totals are reduced as soon as they are drawn: two
        # workers hold about a block's working arrays each (a peak of
        # 811-829 KB at 200,000 paths), and a block kept alive while the next
        # is drawn (944-958 KB) is past the bound of 14 block-sized arrays
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        n_paths = 200_000
        simulate_vk(TABLE, 100, 5)  # numpy.random's first import, ~0.8 MB, stays outside the trace
        tracemalloc.start()
        try:
            simulate_vk(TABLE, n_paths, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * 8 * _BLOCK

    def test_each_block_is_freed_before_the_next_is_drawn(self, monkeypatch):
        # the bound above allows a worker two blocks; this one allows none
        # but the block being drawn
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        drawn, alive = [], []

        def sample(i, block, size):
            alive.append([ref() is not None for ref in drawn])
            samples = np.full(size, float(block))
            drawn.append(weakref.ref(samples))
            return samples

        montecarlo._block_estimates(sample, 1, 3 * _BLOCK, 0, 1.0)
        assert alive == [[], [False], [False, False]]

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo.threading, "Thread", no_thread)
        assert simulate_vk(TABLE, 3 * _BLOCK, 2).n_paths == 3 * _BLOCK
        assert simulate_wk(TABLE, [10.0, 50.0, 100.0], 3 * _BLOCK, 2).n_paths == 9 * _BLOCK

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
