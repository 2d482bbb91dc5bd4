"""Independent brute-force oracles shared by the tests.

Everything here deliberately avoids the package's own numerics: gamma
cdfs come from partial sums of the Poisson pmf, value functions from
directly summing the convolution series against those Poisson tails, and
transforms from trapezoid quadrature.  Frozen expected values in the
tests were produced by these routines.  The one exception is
``volterra_direct``, which checks only the renewal solver's linear solve:
it shares the solver's discretisation and solves it step by step.

The tilted-kernel identities are checked with mpmath: the mass and mean
of e^(rho s) q f(s), with rho and q from ``effective``, come from
``mpmath.quad`` on the closed-form gamma density, so the check shares no
quadrature or cdf code with the package.

The last section holds derived quantities that only the tests use (the
counting process of replacements, the cycle transform, a one-path cycle
sampler, the residual value, the tilted forcing term and both sides of
the perpetuity equation).  They are built on the package's own
primitives, and their tests check identities between those primitives.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from restock import valuation
from restock.distributions import GammaLaw, convolution_cdf
from restock.montecarlo import (
    _PERP_V,
    _PERP_X,
    MCEstimate,
    _estimate,
    _perpetuity_samples,
    _stream,
    simulate_vk,
)
from restock.valuation import ModelParams, effective


def poisson_tail(n: int, lam: float) -> float:
    """P(Poisson(lam) >= n) by brute-force partial sums of the pmf.

    Terms are built by the ratio recurrence so nothing overflows; the sum
    runs far enough past the mean that the neglected tail is below 1e-18.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if n <= 0:
        return 1.0
    if lam == 0:
        return 0.0
    term = math.exp(-lam)  # j = 0
    total = 0.0
    j = 0
    j_stop = max(n, lam) + 80.0 * math.sqrt(lam + 1.0) + 80.0
    while j < j_stop:
        if j >= n:
            total += term
        j += 1
        term *= lam / j
    return total


def erlang_cdf(n_stages: int, rate: float, t: float) -> float:
    """P(Gamma(n_stages, rate) <= t) via the Poisson-tail identity."""
    return poisson_tail(n_stages, rate * t)


def series_value(k: int, mu: float, r: float, theta: float, t: float, tol: float = 1e-9) -> float:
    """Convolution-series value from the Poisson-tail oracle only."""
    q = (mu / (r + mu)) ** k
    total = 0.0
    q_pow = 1.0
    n = 0
    while True:
        n += 1
        q_pow *= q
        total += q_pow * erlang_cdf(n * k, mu, t)
        if abs(theta) * q_pow * q / (1.0 - q) < tol:
            break
    return theta * total


def trapezoid_transform(times: np.ndarray, values: np.ndarray, s: float) -> float:
    """Trapezoid quadrature of e^(-s t) * values over the given grid."""
    integrand = np.exp(-s * np.asarray(times)) * np.asarray(values)
    return float(np.trapezoid(integrand, times))


def volterra_direct(params, grid):
    """The renewal solver's discrete equation solved step by step, O(n^2).

    Builds the same exact panel moments as ``restock.volterra`` and solves
    denom * w_i - q * sum_{l<i} conv_w[i-l] * w_l = g_i one step at a time
    with a dot product per step.  Returns (times, values).
    """
    from restock.erlang import erlang_cdf_grid

    eff = effective(params)
    k, mu = params.k, params.mu
    h = grid.h
    n = grid.n_steps
    times = np.arange(n + 1) * h
    cdf_k, cdf_k1 = erlang_cdf_grid(k, mu, times)
    a_panel = cdf_k[1:] - cdf_k[:-1]
    first_moment = (k / mu) * (cdf_k1[1:] - cdf_k1[:-1])
    b_panel = (first_moment - times[:-1] * a_panel) / h
    conv_w = np.empty(n)
    conv_w[0] = 0.0
    conv_w[1:] = a_panel[1:] - b_panel[1:] + b_panel[:-1]
    conv_w_rev = conv_w[::-1].copy()
    denom = 1.0 - eff.phi_k * (a_panel[0] - b_panel[0])

    g = eff.theta * eff.phi_k * cdf_k
    w = np.zeros(n + 1)
    q = eff.phi_k
    for i in range(1, n + 1):
        acc = np.dot(w[1:i], conv_w_rev[n - i : n - 1]) if i > 1 else 0.0
        w[i] = (g[i] + q * acc) / denom
    return times, w


def tilted_kernel_moments(params: ModelParams) -> tuple[float, float]:
    """Mass and mean of the tilted kernel e^(rho s) q f(s), by mpmath quadrature.

    The kernel is the density q mu^k s^(k-1) e^(-(mu - rho) s) / (k-1)!,
    integrated at mpmath's default 15 digits over [0, k/mu] and [k/mu, inf).
    """
    eff = effective(params)
    k, mu = params.k, params.mu
    front = eff.phi_k * mpmath.mpf(mu) ** k / mpmath.factorial(k - 1)
    beta = mu - eff.rho

    def kernel(s):
        return front * s ** (k - 1) * mpmath.exp(-beta * s)

    edges = [0, k / mu, mpmath.inf]
    mass = mpmath.quad(kernel, edges)
    mean = mpmath.quad(lambda s: s * kernel(s), edges)
    return float(mass), float(mean)


# Test-only quantities built on the package's primitives.


def counting_pmf(n: int, t: float, law: GammaLaw) -> float:
    """P[N(t) = n]: exactly n replacements completed by time t.

    N(t) >= n iff the n-th replacement epoch is <= t, so the pmf is the
    difference of consecutive convolution cdfs.
    """
    p = convolution_cdf(n, t, law) - convolution_cdf(n + 1, t, law)
    # clip the rounding residue of the difference
    return min(1.0, max(0.0, p))


def counting_pgf(t: float, s: float, law: GammaLaw, tol: float = 1e-12) -> float:
    """E[s^N(t)] for s in [0, 1], truncated under a rigorous tail bound.

    For s < 1 the tail beyond the n-th term is below s^n / (1 - s) because
    every pmf value is at most 1; summation stops once that bound drops
    under ``tol``.  For s = 1 the value is exactly 1 (pmf normalization).
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if s == 1.0:
        return 1.0
    if t == 0.0:
        return 1.0
    total = 0.0
    s_pow = 1.0
    n = 0
    while True:
        total += s_pow * counting_pmf(n, t, law)
        n += 1
        s_pow *= s
        if s_pow / (1.0 - s) < tol:
            break
    return total


def laplace_phi(s: float, law: GammaLaw) -> float:
    """E[exp(-s X)] = (rate / (s + rate))^shape for s > -rate.

    Computed in log space so large shapes neither overflow nor underflow
    prematurely.
    """
    if not s > -law.rate:
        raise ValueError(f"transform diverges for s <= -rate ({s} <= {-law.rate})")
    return math.exp(law.shape * (math.log(law.rate) - math.log(s + law.rate)))


def sample_renewal_time(law: GammaLaw, stream: np.random.Generator) -> float:
    """Exact draw of one availability time from a caller-owned stream.

    Realized as the sum of ``shape`` unit-exponential inverse-transform
    draws scaled by 1/rate; consumes exactly ``shape`` uniforms.
    """
    u = stream.random(law.shape)
    return float(-np.log1p(-u).sum() / law.rate)


def residual_value(params: ModelParams, t: float) -> float:
    """Remaining value v - w(t) still to accrue after horizon t."""
    return effective(params).v - valuation.series_value(params, t)


def tail_weight(params: ModelParams, t: float) -> float:
    """Forcing term v * (1 - F(t)) of the tilted residual equation."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return effective(params).v * (1.0 - convolution_cdf(1, t, GammaLaw(params.k, params.mu)))


def verify_perpetuity_equation(params: ModelParams, n_paths: int, seed: int) -> tuple[MCEstimate, MCEstimate]:
    """Estimate both sides of V = e^(-r_eff X) (theta + V) with independent draws.

    The left side is the plain perpetuity estimate, which also checks the
    arguments; the right side prices theta plus a *fresh* perpetuity sample
    behind one fresh cycle draw, from the package's stream domains reserved
    for this check.  The two means agree within sampling error iff the
    simulated perpetuity satisfies its defining identity.
    """
    lhs = simulate_vk(params, n_paths, seed)
    eff = effective(params)
    x = _stream(seed, _PERP_X, 1).standard_gamma(params.k, n_paths) / params.mu
    fresh_v = _perpetuity_samples(params, n_paths, seed, _PERP_V)
    rhs = _estimate(np.exp(-eff.r_eff * x) * (eff.theta + fresh_v), seed)
    return lhs, rhs
