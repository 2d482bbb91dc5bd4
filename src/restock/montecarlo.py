"""Seeded Monte Carlo estimation of the horizon value and the perpetuity.

Both estimators are built on the same model: a replacement falls at every
k-th arrival of a Poisson(mu) demand stream, so cycle lengths are exact
Gamma(k, mu) draws, and the payment at the n-th replacement is theta * D_n
with discount product D_n = prod_{m<=n} e^(-r_eff X'_m).

The horizon value is a *conditional* (Rao-Blackwellised) estimator.  The
renewal *clock* S_1 < S_2 < ... only decides how many replacements fall
inside the horizon, and that count is exactly

    N = floor(Poisson(mu * t) / k),

so each path draws one Poisson count.  The discount products are priced
from a cycle sequence independent of the clock, with E[D_n] = q^n and
q = (mu / (mu + r_eff))^k, so the path's payout given N has the exact
expectation theta * sum_{n=1}^{N} q^n, which is the path's sample.
Conditioning on N leaves the mean unchanged and cannot raise the variance
(Asmussen & Glynn, *Stochastic Simulation*, 2007, ch. V), and

    E[theta * sum_{n<=N} q^n] = theta * sum_n q^n F*n(t)

is the function the analytic methods compute.  Keeping the clock and the
discounting independent mirrors the independence structure of the
perpetuity identity V = e^(-rX) (theta + V).  (Discounting with the
clock's own increments estimates a strictly larger function at finite
horizons; at t = inf both coincide.)

The perpetuity keeps simulating the discount products themselves: each
round draws one Gamma(k, 1) variate per live path, mu times its cycle
length.  Once a path's discount D falls below the window c = ``_WINDOW``
it plays weight-window Russian roulette (Spanier & Gelbard, *Monte Carlo
Principles and Neutron Transport Problems*, 1969): it survives with
probability D / c, carrying D = c on, and retires otherwise.  Every path
ends after finitely many rounds, and because a survivor's weight times
its survival probability is the discount it had, the estimate is exactly
unbiased, with no truncation (the argument of Rhee & Glynn, Oper. Res.
63(5), 2015).  The perpetuity-equation checker in ``tests/oracles.py``
tests that simulation against its defining identity.  Its paths are
split into fixed blocks of ``_BLOCK`` paths, and block b draws all of its
rounds, in order, from one stream of its own: each round's cycles, then,
in rounds where some discount is below c, its roulette uniforms.  The
blocks run on every CPU the process may use (numpy's samplers and ufuncs
release the GIL), one thread per CPU up to the block count.

Determinism: every draw comes from a Philox counter-based stream keyed by
(seed, stream domain, index) -- the horizon clock by index 1, a
perpetuity block by its block number -- and arrays are reduced in fixed
path order, so results are bit-reproducible from (seed, n_paths, params,
t) for the horizon and (seed, n_paths, params, ``_BLOCK``, ``_WINDOW``)
for the perpetuity, and do not depend on the number of cores or on how
the blocks are scheduled (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011).  The numpy version is part of the recipe
too, because the horizon clock uses ``Generator.poisson`` and the
perpetuity ``Generator.standard_gamma`` (Marsaglia & Tsang, ACM TOMS
26(3), 2000) and ``Generator.random``, numpy's own samplers.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from restock.distributions import _check_horizon, _is_integer
from restock.valuation import ModelParams, effective

__all__ = ["MCEstimate", "simulate_wk", "simulate_vk"]

# Stream domains; each (seed, domain, index) triple is an independent
# Philox substream.  The numbers key the draws, so they are part of the
# reproducibility recipe and must never be reassigned.
_WK_CLOCK = 0
_VK_PRICE = 2
# the cycle and the fresh perpetuity of the checker in tests/oracles.py
_PERP_X = 3
_PERP_V = 4

# Paths per perpetuity block.  Block b owns paths [b * _BLOCK, (b+1) * _BLOCK)
# and the stream (seed, domain, b), so the size is part of the recipe.
# Smaller blocks spend more of their time in short numpy calls that hold
# the GIL.
_BLOCK = 8192

# Roulette window c: a path whose discount falls below c survives with
# probability D / c and carries D = c on.  Part of the perpetuity's recipe.
# A larger c ends paths sooner but spreads their totals wider.
_WINDOW = 0.03
_LOG_WINDOW = math.log(_WINDOW)


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and full reproduction recipe.

    ``stderr`` is the sample standard deviation over sqrt(n_paths): the
    sampling error only, not a floating-point error bound.  Where every
    sample rounds to the same value (a horizon so long that every q^N
    underflows) it is 0 or below one ulp of the mean.  The estimate is
    bit-reproducible from (seed, n_paths) and the call's parameters on the
    same numpy version; a perpetuity estimate also depends on the path
    block size ``_BLOCK`` and on its roulette window ``_WINDOW``, and its
    blocks draw from streams keyed by (seed, stream, block), but not on how
    many cores ran them.  Neither estimator truncates, so neither carries
    a bias term: each is unbiased for the function it estimates.
    """

    mean: float
    stderr: float
    n_paths: int
    seed: int


def _check_seed(seed: int) -> int:
    if not _is_integer(seed):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _check_paths(n_paths: int) -> int:
    if not (_is_integer(n_paths) and n_paths >= 2):
        raise ValueError(f"n_paths must be an integer >= 2, got {n_paths!r}")
    return int(n_paths)


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    key = np.array([seed, (domain << 56) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _estimate(samples: np.ndarray, seed: int) -> MCEstimate:
    n = samples.size
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n))
    return MCEstimate(mean=mean, stderr=stderr, n_paths=n, seed=seed)


def simulate_wk(params: ModelParams, t: float, n_paths: int, seed: int) -> MCEstimate:
    """Estimate the horizon-t value by conditional Monte Carlo over n_paths.

    Each path draws the number of completed cycles by t,
    N = floor(Poisson(mu*t) / k), from one clock stream, and its sample is
    the exact conditional payout theta * sum_{n=1}^{N} q^n.  The geometric
    sum is evaluated as theta * q * expm1(N ln q) / expm1(ln q), which keeps
    full relative accuracy when q is close to 1.  t = 0 gives the exact 0
    from no path (n_paths 0); a negative or non-finite t raises ValueError
    (the infinite-horizon value is :func:`simulate_vk`).
    """
    if t == math.inf:
        raise ValueError(
            f"t must be finite, got {t}; simulate the perpetual value with "
            "simulate_vk (CLI: simulate --perpetual)"
        )
    _check_horizon(t)
    n_paths = _check_paths(n_paths)
    seed = _check_seed(seed)
    eff = effective(params)
    if t == 0:
        return MCEstimate(mean=0.0, stderr=0.0, n_paths=0, seed=seed)
    k, mu = params.k, params.mu

    cycles = _stream(seed, _WK_CLOCK, 1).poisson(mu * t, n_paths) // k
    log_q = -k * math.log1p(eff.r_eff / mu)
    scale = eff.theta * math.exp(log_q) / math.expm1(log_q)
    return _estimate(scale * np.expm1(cycles * log_q), seed)


def _perpetuity_samples(params: ModelParams, n_paths: int, seed: int, domain: int) -> np.ndarray:
    """Per-path discounted payment totals, ended by weight-window roulette.

    Once a round's payment theta * D_n is added, a path whose discount
    D_n has fallen below the window c = _WINDOW survives with probability
    D_n / c and carries D = c on; the rest retire.  Survival draws one
    uniform u per live path and keeps the path iff log c + log u < log D,
    so a path at or above c always survives.  A retired path's expected
    remaining payout, D_n times a perpetuity, equals that of a survivor
    weighted by survival, so the totals stay exact in expectation.

    Block b fills paths [b * _BLOCK, (b+1) * _BLOCK) of the result, every
    round's cycles and then (in rounds where some discount is below c)
    its uniforms drawn in order from the stream (seed, domain, b); the
    blocks run on up to one thread per usable CPU.  A block's live arrays
    are kept compacted: a retiring path's total is written once to its
    slot of the result, and the rest shrink to the survivors.
    """
    eff = effective(params)
    k, rate, theta = params.k, eff.r_eff / params.mu, eff.theta
    out = np.empty(n_paths)

    def run(block: int) -> None:
        stream = _stream(seed, domain, block)
        part = out[block * _BLOCK : (block + 1) * _BLOCK]
        slots = np.arange(part.size)
        log_discount = np.zeros(part.size)
        payout = np.zeros(part.size)
        while slots.size:
            cycle = stream.standard_gamma(k, slots.size)
            cycle *= rate
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
                    part[slots[retired]] = payout[retired]
                    live = ~retired
                    slots, log_discount, payout = slots[live], log_discount[live], payout[live]

    _run_blocks(run, -(-n_paths // _BLOCK))
    return out


def _run_blocks(run, n_blocks: int) -> None:
    """Call ``run(b)`` once for each block b < n_blocks, on up to one thread per CPU.

    Worker i runs blocks i, i + workers, i + 2 * workers, ... in turn; the
    calling thread is worker 0, so a single worker starts no thread.  A
    worker stops at its first exception, and the first exception raised is
    re-raised once every worker has returned.
    """
    workers = min(_usable_cpus(), n_blocks)
    errors: list[BaseException] = []

    def work(first: int) -> None:
        try:
            for block in range(first, n_blocks, workers):
                run(block)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def simulate_vk(params: ModelParams, n_paths: int, seed: int) -> MCEstimate:
    """Estimate the perpetual value v by simulating the discount products.

    Each path collects theta * D_n at every replacement until weight-window
    roulette ends it (see ``_perpetuity_samples``).  The roulette leaves
    every path's expected total equal to v, so the estimate has no
    truncation bias and its error is the sampling error ``stderr``.
    """
    n_paths = _check_paths(n_paths)
    seed = _check_seed(seed)
    return _estimate(_perpetuity_samples(params, n_paths, seed, _VK_PRICE), seed)
