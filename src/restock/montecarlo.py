"""Seeded Monte Carlo estimation of the horizon value and the perpetuity.

Both estimators are built on the same model: a replacement falls at every
k-th arrival of a Poisson(mu) demand stream, so cycle lengths are exact
Gamma(k, mu) draws, and the payment at the n-th replacement is theta * D_n
with discount product D_n = prod_{m<=n} e^(-r_eff X'_m).

The horizon value is a *conditional* (Rao-Blackwellised) estimator.  The
renewal *clock* S_1 < S_2 < ... only decides how many replacements fall
inside the horizon, and that count is exactly

    N = floor(Poisson(mu * t) / k),

so each path draws one Poisson count and scores the exact conditional
payout theta * sum_{n=1}^{N} q^n, with q = (mu / (mu + r_eff))^k.
Conditioning on N leaves the mean unchanged and cannot raise the variance
(Asmussen & Glynn, *Stochastic Simulation*, 2007, ch. V), and

    E[theta * sum_{n<=N} q^n] = theta * sum_n q^n F*n(t)

is the function the analytic methods compute: the payment at the n-th
replacement is discounted by q^n, the mean discount of n cycles priced
apart from the clock that counts them.  Discounting each payment by the
clock's own epoch, e^(-r_eff S_n), gives a larger value at finite horizons
(0.467872 against 0.447011 at k = 10, mu = 1, r = 0.02, theta = 1,
t = 10); at t = inf both are v.

The perpetuity keeps simulating the discount products themselves: each
round draws one Gamma variate of shape k and scale r_eff/mu per live path,
the exponent of its discount factor (inf, a factor of exactly 0.0, where it
overflows).  Once a path's discount D falls below the window c = ``_WINDOW``
it plays weight-window Russian roulette (Spanier & Gelbard, *Monte Carlo
Principles and Neutron Transport Problems*, 1969): it survives with
probability D / c, carrying D = c on, and retires otherwise.  Every path
ends after finitely many rounds, and because a survivor's weight times
its survival probability is the discount it had, the estimate is exactly
unbiased, with no truncation (the argument of Rhee & Glynn, Oper. Res.
63(5), 2015).  A block draws all of its rounds, in order, from one stream
of its own: each round's cycles, then, in rounds where some discount is
below c, its roulette uniforms.  The perpetuity-equation checker in
``tests/oracles.py`` tests such blocks against their defining identity.

Both estimators run on one block engine, a horizon call with an estimate
for each nonzero time of its grid: an estimate's paths are cut into
blocks of ``_BLOCK``, every (estimate, block) pair draws from its own
stream and reduces its samples to (count, mean, sum of squared
deviations) at once, in units of the power of two at or below v (for
the perpetuity, at least theta * 2^-1000, where the discounts underflow),
so that no square overflows or underflows where v is finite.  An estimate's blocks merge in
block order by Chan, Golub & LeVeque's pairwise update (Amer. Statist.
37(3), 1983), so memory stays at one block per worker for both.  The
blocks run on every CPU the process may use (numpy's samplers and ufuncs
release the GIL).

Determinism: every draw comes from an SFC64 stream (Doty-Humphrey's Small
Fast Chaotic generator) seeded through numpy's SeedSequence by the key
(seed, stream domain, index, high): the perpetuity's block b by index b
and high 0, and the horizon's (t, block b) pair by index b with the
float64 bits of t as high.  SeedSequence hashes the whole key into the
generator's state (O'Neill's seed_seq design), so keys that differ in any
bit seed unrelated streams.  A block's draws and reductions are the same
on every schedule, and blocks are merged in fixed order, so results are
bit-reproducible from (seed, n_paths, params, t, ``_BLOCK``) for a horizon
estimate, whatever other times share the call, and from (seed, n_paths,
params, ``_BLOCK``, ``_WINDOW``) for the perpetuity, and neither depends
on the number of cores or on how the blocks are scheduled.  The numpy
version is part of the recipe too, because the horizon clock uses
``Generator.poisson`` and the perpetuity ``Generator.gamma``
(Marsaglia & Tsang, ACM TOMS 26(3), 2000) and ``Generator.random``,
numpy's own samplers.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from restock.valuation import EffectiveParams, ModelParams, _check_count, _check_horizon, _Record, _set, effective

__all__ = ["MCEstimate", "MCCurve", "simulate_wk", "simulate_vk"]

# Stream domains; each (seed, domain, index) triple, with a third key word
# (a horizon's t bits, else 0), seeds an independent SFC64 stream.  The
# numbers key the draws, so they are part of the reproducibility recipe and
# must never be reassigned.
_WK_CLOCK = 0
_VK_PRICE = 2
# 3 and 4 are taken: the perpetuity-equation checker in tests/oracles.py

# Paths per block, for the perpetuity and for each horizon time.  Block b
# owns paths [b * _BLOCK, (b+1) * _BLOCK) and the stream (seed, domain, b),
# so the size is part of the recipe.  Smaller blocks spend more of their
# time in short numpy calls that hold the GIL.
_BLOCK = 8192

# Roulette window c: a path whose discount falls below c survives with
# probability D / c and carries D = c on.  Part of the perpetuity's recipe.
# A larger c ends paths sooner but spreads their totals wider.
_WINDOW = 0.03
_LOG_WINDOW = math.log(_WINDOW)

# A perpetuity path takes about ln(1/c)/(k ln(alpha)) + 1/(1 - q) rounds;
# simulate_vk refuses a model whose paths need more than this many.
_MAX_ROUNDS = 10**5


class MCEstimate(_Record):
    """Sample mean with its standard error and full reproduction recipe.

    ``stderr`` is the sample standard deviation over sqrt(n_paths): the
    sampling error only, not a floating-point error bound.  Where every
    sample rounds to the same value (a horizon so long that every q^N
    underflows) it is 0 or below one ulp of the mean.  (seed, n_paths)
    and the call's parameters reproduce it bit for bit on any number of
    cores, by the recipe of the module's Determinism paragraph.  Neither
    estimator truncates, so neither carries a bias term.
    """

    __slots__ = ("mean", "stderr", "n_paths", "seed")

    def __init__(self, mean: float, stderr: float, n_paths: int, seed: int) -> None:
        _set(self, "mean", mean)
        _set(self, "stderr", stderr)
        _set(self, "n_paths", n_paths)
        _set(self, "seed", seed)


class MCCurve(_Record):
    """Horizon estimates on a grid: ``estimates[i]`` is the estimate at the
    caller's i-th time.

    Each entry is bit-identical to a call of :func:`simulate_wk` at that
    time alone, with the same seed and n_paths.
    """

    __slots__ = ("estimates",)

    def __init__(self, estimates: tuple[MCEstimate, ...]) -> None:
        _set(self, "estimates", estimates)

    @property
    def n_paths(self) -> int:
        """Paths simulated over the whole grid; a zero time simulates none."""
        return sum(est.n_paths for est in self.estimates)


def _check_seed(seed: int) -> int:
    seed = _check_count("seed", seed, 0)
    if seed >= 2**64:  # the width of the stream key's seed word
        raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    return seed


def _stream(seed: int, domain: int, index: int, high: int = 0) -> np.random.Generator:
    """The SFC64 stream keyed by the 64-bit words (seed, domain << 56 | index, high).

    SeedSequence hashes the key's 32-bit words.  Given integers, it splits
    each into as many words as it needs, so [2^32, 0, 0] and [0, 1, 0] would
    seed one stream; every 64-bit word is therefore passed as exactly two
    words, low half first, split by arithmetic rather than by byte order.
    """
    words = [(int(w) >> shift) & 0xFFFFFFFF for w in (seed, (domain << 56) | index, high) for shift in (0, 32)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate_wk(params: ModelParams, t, n_paths: int, seed: int) -> MCEstimate | MCCurve:
    """Estimate the horizon value by conditional Monte Carlo over n_paths per time.

    Each path draws the number of completed cycles by t,
    N = floor(Poisson(mu*t) / k), and its sample is the exact conditional
    payout theta * sum_{n=1}^{N} q^n, evaluated as -v * expm1(N ln q)
    with v = theta * q / (1 - q) the perpetual value, which keeps full
    relative accuracy when q is close to 1.  A float t returns an
    :class:`MCEstimate`; a sequence of times returns an :class:`MCCurve`
    with one estimate per time, simulated in one pass over (time, block)
    pairs, a repeated time once.  t = 0 gives the exact 0 from no path
    (n_paths 0).  A negative or non-finite time (the infinite-horizon value
    is :func:`simulate_vk`), k >= 2^63, or a mu*t past numpy's Poisson
    sampler raises ValueError before any draw.
    """
    scalar = np.ndim(t) == 0
    times = _check_times((t,) if scalar else t)
    n_paths = _check_count("n_paths", n_paths, 2)
    seed = _check_seed(seed)
    eff = effective(params)
    unit = _unit(eff.v)
    # q^N is exactly 0.0 for N >= 1 once ln q < -745.2, so the floor keeps
    # every sample and turns an infinite k ln(alpha) into no 0 * -inf = NaN
    k, mu, log_q, scale = eff.k, eff.mu, max(-eff.k_log_alpha, -746.0), -eff.v / unit
    drawn = list(dict.fromkeys(t for t in times if t > 0))
    if drawn and k >= 2**63:
        raise ValueError(f"k = {k} is past the int64 cycle counts of the Monte Carlo clock (k < 2**63)")
    top = max(drawn, default=0.0)
    if mu * top > 2.0**63 - 10.0 * 2.0**31.5:  # numpy's POISSON_LAM_MAX
        raise ValueError(f"mu*t = {mu * top!r} at t = {top!r} is past numpy's Poisson sampler (mu*t <= 9.22e18)")

    def payouts(i: int, block: int, size: int) -> np.ndarray:
        t = drawn[i]
        cycles = _stream(seed, _WK_CLOCK, block, np.float64(t).view(np.uint64)).poisson(mu * t, size)
        cycles //= k
        samples = np.multiply(cycles, log_q)
        np.expm1(samples, out=samples)
        samples *= scale
        return samples

    by_time = {0.0: MCEstimate(mean=0.0, stderr=0.0, n_paths=0, seed=seed)}
    by_time.update(zip(drawn, _block_estimates(payouts, len(drawn), n_paths, seed, unit)))
    estimates = tuple(by_time[t] for t in times)
    return estimates[0] if scalar else MCCurve(estimates=estimates)


def _check_times(times) -> tuple[float, ...]:
    """Every time through the horizon check; t = inf points to simulate_vk."""
    checked = []
    for t in times:
        try:
            checked.append(_check_horizon(t))
        except ValueError as exc:
            if not (isinstance(t, (float, np.floating)) and t == math.inf):
                raise
            raise ValueError(f"{exc}; simulate the perpetual value with simulate_vk (CLI: simulate --perpetual)") from None
    return tuple(checked)


def _unit(v: float) -> float:
    """The power of two at or below |v|: the unit a sampler's draws are reduced in.

    A sample in this unit is about 1 where the value is, so its square
    stays in range wherever v is finite; a power of two scales every
    rounding exactly, so no result moves by a bit where neither scale
    overflows or underflows.
    """
    return math.ldexp(1.0, math.frexp(v)[1] - 1)


def _block_estimates(sample, n_estimates: int, n_paths: int, seed: int, unit: float) -> list[MCEstimate]:
    """n_estimates estimates of n_paths each, from blocks of _BLOCK paths on up to one thread per CPU.

    ``sample(i, b, size)`` returns a fresh array of the ``size`` samples of
    estimate i's block b, in units of ``unit`` (a power of two, see
    :func:`_unit`), which is reduced in place to (count, mean, sum of
    squared deviations M2); each estimate's mean and stderr are multiplied
    by ``unit`` once, at the end.  Job i * blocks + b is estimate i's
    block b; worker w runs jobs w, w + workers, w + 2 * workers, ... in
    turn, and the calling thread is worker 0, so a single worker starts no
    thread.  A worker stops at its first exception, and the first
    exception raised is re-raised once every worker has returned.  An
    estimate's blocks merge in block order: merging (n_a, mean_a, M2_a)
    with (n_b, mean_b, M2_b) gives mean_a + delta * n_b / n and
    M2_a + M2_b + delta^2 * n_a * n_b / n, where delta = mean_b - mean_a
    and n = n_a + n_b.
    """
    blocks = -(-n_paths // _BLOCK)
    jobs = n_estimates * blocks
    parts: list[tuple[int, float, float]] = [(0, 0.0, 0.0)] * jobs
    workers = max(1, min(_usable_cpus(), jobs))
    errors: list[BaseException] = []

    def work(first: int) -> None:
        try:
            for job in range(first, jobs, workers):
                i, block = divmod(job, blocks)
                size = min(_BLOCK, n_paths - block * _BLOCK)
                samples = sample(i, block, size)
                mean = float(samples.mean())
                samples -= mean
                np.square(samples, out=samples)
                parts[job] = (size, mean, float(samples.sum()))
                del samples  # else this block lives on while the next one is drawn
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,), daemon=True) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    estimates = []
    for i in range(n_estimates):
        n, mean, m2 = parts[i * blocks]
        for size, block_mean, block_m2 in parts[i * blocks + 1 : (i + 1) * blocks]:
            delta = block_mean - mean
            mean += delta * size / (n + size)
            m2 += block_m2 + delta * delta * n * size / (n + size)
            n += size
        stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
        estimates.append(MCEstimate(mean=mean * unit, stderr=stderr * unit, n_paths=n, seed=seed))
    return estimates


def _perpetuity_block(eff: EffectiveParams, stream: np.random.Generator, size: int, unit: float) -> np.ndarray:
    """Discounted payment totals of ``size`` paths in units of ``unit``, ended by weight-window roulette.

    Once a round's payment theta * D_n is added, a path whose discount
    D_n has fallen below the window c = _WINDOW survives with probability
    D_n / c and carries D = c on; the rest retire.  Survival draws one
    uniform u per live path and keeps the path iff log c + log u < log D,
    so a path at or above c always survives.  A retired path's expected
    remaining payout, D_n times a perpetuity, equals that of a survivor
    weighted by survival, so the totals stay exact in expectation.  The
    live arrays are kept compacted: a retiring path's total is written once
    to its slot of the result, and the rest shrink to the survivors one
    array at a time, so that no two old arrays outlive their copies.
    """
    k, rate, theta = eff.k, eff.r_eff / eff.mu, eff.theta / unit
    totals = np.empty(size)
    slots = np.arange(size)
    log_discount = np.zeros(size)
    payout = np.zeros(size)
    while slots.size:
        cycle = stream.gamma(k, rate, slots.size)
        log_discount -= cycle
        np.exp(log_discount, out=cycle)
        cycle *= theta
        payout += cycle
        if log_discount.min() < _LOG_WINDOW:
            # the spent cycle buffer takes log c + log u (u = 0 gives
            # -inf, and the path survives, as u < D / c says it should)
            stream.random(out=cycle)
            np.log(cycle, out=cycle)
            cycle += _LOG_WINDOW
            retired = cycle >= log_discount
            np.maximum(log_discount, _LOG_WINDOW, out=log_discount)
            if retired.any():
                totals[slots[retired]] = payout[retired]
                live = ~retired
                slots = slots[live]
                log_discount = log_discount[live]
                payout = payout[live]
    return totals


def simulate_vk(params: ModelParams, n_paths: int, seed: int) -> MCEstimate:
    """Estimate the perpetual value v by simulating the discount products.

    Each path collects theta * D_n at every replacement until weight-window
    roulette ends it (see ``_perpetuity_block``).  The roulette leaves
    every path's expected total equal to v, so the estimate has no
    truncation bias and its error is the sampling error ``stderr``.

    A path takes about ln(1/c)/(k ln(alpha)) + 1/(1 - q) rounds, each a
    numpy call over the live paths.  Where that is more than
    ``_MAX_ROUNDS`` = 10^5 (at k = 1, mu = 1: r below 4.51e-5, or q
    rounding to 1), ValueError is raised before anything is drawn; at the
    cap 2,000 paths take 6.3-7.1 s and 100,000 take 170 s on a 2-vCPU Xeon.
    ``effective(params).v`` is the exact value.
    """
    n_paths = _check_count("n_paths", n_paths, 2)
    seed = _check_seed(seed)
    eff = effective(params)
    rounds = -_LOG_WINDOW / eff.k_log_alpha - 1.0 / math.expm1(-eff.k_log_alpha)
    if not rounds <= _MAX_ROUNDS:
        raise ValueError(f"a perpetuity path needs about {rounds:.3g} rounds, past the cap of {_MAX_ROUNDS}; "
                         "`restock value` gives the exact perpetual value")

    # past k ln(alpha) ~ 709 the discounts fall below the double range while
    # theta * D_n does not, and theta / unit is held below 2^1001, where it is finite
    unit = max(_unit(eff.v), math.ldexp(_unit(eff.theta), -1000))

    def totals(_: int, block: int, size: int) -> np.ndarray:
        return _perpetuity_block(eff, _stream(seed, _VK_PRICE, block), size, unit)

    return _block_estimates(totals, 1, n_paths, seed, unit)[0]
