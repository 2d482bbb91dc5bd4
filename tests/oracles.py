"""Independent brute-force oracles shared by the tests.

Everything here deliberately avoids the package's own numerics: gamma
cdfs come from partial sums of the Poisson pmf, value functions from
directly summing the convolution series against those Poisson tails, and
transforms from trapezoid quadrature.  Frozen expected values in the
tests were produced by these routines.  The one exception is
``volterra_direct``, which checks only the renewal solver's linear solve:
it shares the solver's discretisation and solves it step by step.
"""

from __future__ import annotations

import math

import numpy as np


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
    from restock.valuation import effective
    from restock.volterra import erlang_cdf_grid

    eff = effective(params)
    k, mu = params.k, params.mu
    h = grid.h
    n = grid.n_steps
    times = np.arange(n + 1) * h
    cdf_k = erlang_cdf_grid(k, mu, times)
    cdf_k1 = erlang_cdf_grid(k + 1, mu, times)
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
