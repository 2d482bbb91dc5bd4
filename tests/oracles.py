"""Independent brute-force oracles shared by the tests.

Everything here deliberately avoids the package's own numerics: gamma
cdfs come from partial sums of the Poisson pmf, value functions from
directly summing the convolution series against those Poisson tails, and
transforms from trapezoid quadrature.  Frozen expected values in the
tests were produced by these routines.  The exceptions are
``volterra_direct`` and ``volterra_longdouble``, which check only the
renewal solver's linear solve: the first shares the solver's
discretisation, the second takes the solver's own coefficients, and both
solve it step by step.

The tilted-kernel identities are checked with mpmath: the mass and mean
of e^(rho s) q f(s), with rho and q from ``effective``, come from
``mpmath.quad`` on the closed-form gamma density, so the check shares no
quadrature or cdf code with the package.  ``residue_value`` sums the
transform's pole residues in mpmath, at whatever precision the sum's
cancellation needs, from its own poles and roots of unity.

The last section holds derived quantities that only the tests use (the
residual value, the tilted forcing term, the perpetuity's path totals
block by block and both sides of the perpetuity equation).  They are
built on the package's own primitives, and their tests check identities
between those primitives.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from restock import valuation
from restock.montecarlo import _BLOCK, MCEstimate, _perpetuity_block, _stream, simulate_vk
from restock.valuation import ModelParams, convolution_cdf, effective

# Stream domains of the perpetuity-equation checker: its cycle draw and its
# fresh perpetuity.  restock.montecarlo leaves these two numbers unused.
_PERP_X = 3
_PERP_V = 4


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


def residue_value(k: int, mu: float, r: float, theta: float, t: float) -> float:
    """w(t) by the residue expansion in mpmath, at the precision its cancellation needs.

    w(t) = v + (theta/k) Re sum_j (1 + mu/s_j) e^(s_j t) over all k poles
    s_j = mu (omega_j/alpha - 1), omega_j the k-th roots of unity.  The sum
    is taken at 40 digits, then retaken at 30 + log10(sum |term| / |w|)
    digits until the working precision covers its own cancellation ratio.
    Rounded once to double.
    """
    if t == 0:
        return 0.0
    dps = 40
    while dps <= 5000:
        with mpmath.workdps(dps):
            mu_, t_, theta_ = mpmath.mpf(mu), mpmath.mpf(t), mpmath.mpf(theta)
            alpha = mpmath.mpf(r) / mu_ + 1
            v = theta_ / (alpha**k - 1)
            total, mass = v, abs(v)
            for j in range(k):
                s_j = mu_ * (mpmath.expjpi(mpmath.mpf(2 * j) / k) / alpha - 1)
                term = theta_ / k * (1 + mu_ / s_j) * mpmath.exp(s_j * t_)
                total += mpmath.re(term)
                mass += abs(term)
            if total != 0:
                needed = 30 + int(mpmath.ceil(mpmath.log10(mass / abs(total))))
                if dps >= needed:
                    return float(total)
                dps = max(needed, dps + 10)
            else:
                dps *= 2
    raise ArithmeticError(f"residue sum cancels past 5000 digits at k={k}, mu={mu}, r={r}, t={t}")


def trapezoid_transform(times: np.ndarray, values: np.ndarray, s: float) -> float:
    """Trapezoid quadrature of e^(-s t) * values over the given grid."""
    integrand = np.exp(-s * np.asarray(times)) * np.asarray(values)
    return float(np.trapezoid(integrand, times))


def volterra_direct(params, grid) -> np.ndarray:
    """The renewal solver's discrete equation solved step by step, O(n^2).

    Builds the same exact panel moments as ``restock.volterra`` and solves
    denom * w_i - q * sum_{l<i} conv_w[i-l] * w_l = g_i one step at a time
    with a dot product per step.  Returns the n + 1 values.
    """
    from restock.volterra import erlang_cdf_grid

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
    return w


def volterra_longdouble(params, grid) -> np.ndarray:
    """The renewal solver's own discrete system solved step by step in long double.

    Takes C and G from ``restock.volterra._renewal_system`` and runs the
    banded forward substitution c_0 u_i = g_i - sum_{0<j<L} c_j u_(i-j) for
    u = W/x, O(n L) in ``np.longdouble``, so what it differs from the
    solver by is the solver's round-off.  Returns w_0, ..., w_n.
    """
    from restock.volterra import _renewal_system

    n = grid.n_steps
    c, g = _renewal_system(effective(params), grid)
    rhs = np.full(n, g[-1], dtype=np.longdouble)
    rhs[: g.size] = g
    lags = c[:0:-1].astype(np.longdouble)  # c_(L-1), ..., c_1
    band = lags.size
    u = np.zeros(band + n, dtype=np.longdouble)
    c_0 = np.longdouble(c[0])
    for i in range(n):
        u[band + i] = (rhs[i] - np.dot(lags, u[i : band + i])) / c_0
    return np.concatenate((np.zeros(1, dtype=np.longdouble), u[band:]))


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


def residual_value(params: ModelParams, t: float) -> float:
    """Remaining value v - w(t) still to accrue after horizon t."""
    return effective(params).v - valuation.series_value(params, t)


def tail_weight(params: ModelParams, t: float) -> float:
    """Forcing term v * (1 - F(t)) of the tilted residual equation."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return effective(params).v * (1.0 - convolution_cdf(1, t, params.k, params.mu))


def perpetuity_totals(params: ModelParams, n_paths: int, seed: int, domain: int) -> np.ndarray:
    """Totals of n_paths perpetuity paths, one ``_perpetuity_block`` draw per block b on (seed, domain, b)."""
    eff = effective(params)
    sizes = [min(_BLOCK, n_paths - start) for start in range(0, n_paths, _BLOCK)]
    return np.concatenate([_perpetuity_block(eff, _stream(seed, domain, b), size) for b, size in enumerate(sizes)])


def verify_perpetuity_equation(params: ModelParams, n_paths: int, seed: int) -> tuple[MCEstimate, MCEstimate]:
    """Estimate both sides of V = e^(-r_eff X) (theta + V) with independent draws.

    The left side is the plain perpetuity estimate, which also checks the
    arguments; the right side prices theta plus a *fresh* perpetuity sample
    behind one fresh cycle draw, from the stream domains reserved for this
    check.  The fresh perpetuity is drawn block by block with the package's
    ``_perpetuity_block`` (``perpetuity_totals`` on domain _PERP_V), and
    the right side's mean and stderr are computed here over all n_paths
    samples at once, so comparing the sides also tests the package's block
    merge from outside it.  The two means agree within sampling error iff
    the simulated perpetuity satisfies its defining identity.
    """
    lhs = simulate_vk(params, n_paths, seed)
    eff = effective(params)
    x = _stream(seed, _PERP_X, 1).standard_gamma(params.k, n_paths) / params.mu
    fresh_v = perpetuity_totals(params, n_paths, seed, _PERP_V)
    samples = np.exp(-eff.r_eff * x) * (eff.theta + fresh_v)
    stderr = float(samples.std(ddof=1) / math.sqrt(n_paths))
    return lhs, MCEstimate(mean=float(samples.mean()), stderr=stderr, n_paths=n_paths, seed=seed)
