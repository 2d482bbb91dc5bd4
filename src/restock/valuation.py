"""Closed forms, convolution series, asymptotics, and the optimal stock size.

The per-cycle discount factor of a Gamma(k, mu) cycle under effective
rate r is q = phi^k(r) = alpha^(-k) with alpha = r/mu + 1.  Replacement n
then contributes theta * q^n * F*n(t) to the expected present value at
horizon t, giving

    w(t)   = theta * sum_{n>=1} q^n F*n(t),
    w(inf) = v = theta * q / (1 - q) = theta / (alpha^k - 1),

and the exponentially tilted kernel e^(rho s) q f(s) -- with the tilt
rho = r*mu/(r+mu) that restores unit kernel mass -- yields the large-t
approximation w(t) ~= v - (theta*mu/(k*r)) e^(-rho t).

Cost growth at rate ``growth`` < r is handled by valuing everything at
the effective rate r - growth; all operations route through
:func:`effective` so the equivalence is exact at the bit level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from restock.distributions import _is_integer, poisson_tails
# The series no longer calls convolution_cdf; the name stays bound here
# because perfbench/spans.py wraps it at this module as a benchmark layer.
from restock.distributions import convolution_cdf  # noqa: F401

__all__ = [
    "FixedCost",
    "LinearCost",
    "ModelParams",
    "EffectiveParams",
    "ValueCurve",
    "effective",
    "perpetual_value",
    "series_value",
    "asymptotic_value",
    "exact_k1_value",
    "optimal_stock_scan",
]

DEFAULT_SERIES_TOL = 1e-9
DEFAULT_KMAX = 10**6

# unit roundoff of a double: a tail below this fraction of a sum is within
# the rounding error of the sum itself
_UNIT_ROUNDOFF = 2.0**-53


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class FixedCost:
    """A flat payment ``theta`` per replacement (currency)."""

    theta: float

    def __post_init__(self) -> None:
        if not _finite(self.theta):
            raise ValueError(f"theta must be a finite real, got {self.theta!r}")


@dataclass(frozen=True)
class LinearCost:
    """Replacement payoff b*k - a: fixed cost ``a`` per restocking operation,
    unit margin ``b`` per item."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (_finite(self.a) and self.a >= 0):
            raise ValueError(f"fixed cost a must be a nonnegative real, got {self.a!r}")
        if not (_finite(self.b) and self.b > 0):
            raise ValueError(f"unit margin b must be a positive real, got {self.b!r}")


Cost = FixedCost | LinearCost


@dataclass(frozen=True)
class ModelParams:
    """User-facing model parameters.

    k: stock size (units, integer >= 1)
    mu: demand intensity (items per unit time)
    r: discount interest rate (per unit time)
    cost: FixedCost(theta) or LinearCost(a, b)
    growth: cost inflation rate (per unit time), must stay below r

    ``growth < r`` and, for linear costs, ``b > a/k`` are enforced where
    the derived quantities are computed (:func:`effective`), so the error
    surfaces with the operation that needs them.
    """

    k: int
    mu: float
    r: float
    cost: Cost
    growth: float = 0.0

    def __post_init__(self) -> None:
        if not _is_integer(self.k):
            raise TypeError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (_finite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be a finite positive real, got {self.mu!r}")
        if not (_finite(self.r) and self.r > 0):
            raise ValueError(f"r must be a finite positive real, got {self.r!r}")
        if not isinstance(self.cost, (FixedCost, LinearCost)):
            raise TypeError(f"cost must be FixedCost or LinearCost, got {self.cost!r}")
        if not (_finite(self.growth) and self.growth >= 0):
            raise ValueError(f"growth must be a finite nonnegative real, got {self.growth!r}")


@dataclass(frozen=True)
class EffectiveParams:
    """Quantities derived from ModelParams that every method consumes.

    theta: payment per replacement (currency)
    r_eff: effective discount rate r - growth
    alpha: r_eff/mu + 1
    phi_k: per-cycle discount factor alpha^(-k), in (0, 1)
    rho:   tilt rate r_eff*mu/(r_eff+mu) = r_eff/alpha restoring unit
           kernel mass; governs the exponential approach of w(t) to v
    mu0:   mean of the tilted kernel, k*(r_eff+mu)/mu^2 (time units)
    v:     perpetual value theta*phi_k/(1-phi_k) (currency)
    """

    theta: float
    r_eff: float
    alpha: float
    phi_k: float
    rho: float
    mu0: float
    v: float


@dataclass(frozen=True)
class ValueCurve:
    """Horizon grid with values produced by one method."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    method: str = "series"

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size and (np.any(times < 0) or np.any(np.diff(times) <= 0)):
            raise ValueError("times must be nonnegative and strictly ascending")


def _perpetuity(theta: float, k_log_alpha: float) -> float:
    """theta / (alpha^k - 1), given k ln(alpha) > 0.

    expm1 keeps the value accurate when r_eff/mu is tiny; past e^700 alpha^k
    would overflow, so theta alpha^-k / (1 - alpha^-k) is used there, and it
    underflows to 0 for large enough k ln(alpha).
    """
    if k_log_alpha <= 700.0:
        denom = math.expm1(k_log_alpha)
        if denom == 0.0:
            raise ValueError(f"alpha^k - 1 rounds to 0 (k ln(alpha) = {k_log_alpha!r}): r/mu underflows")
        return theta / denom
    return theta * math.exp(-k_log_alpha) / -math.expm1(-k_log_alpha)


def effective(params: ModelParams) -> EffectiveParams:
    """Resolve the cost specification and derive all method inputs.

    Raises if growth >= r (the perpetuity diverges) or if a linear cost
    yields a non-positive payoff b*k - a.
    """
    r_eff = params.r - params.growth
    if r_eff <= 0:
        raise ValueError(
            f"perpetual value divergent under cost growth: growth={params.growth} >= r={params.r}"
        )
    if isinstance(params.cost, FixedCost):
        theta = params.cost.theta
    else:
        theta = params.cost.b * params.k - params.cost.a
        if theta <= 0:
            raise ValueError(
                f"non-positive replacement payoff: b*k = {params.cost.b * params.k} <= a = {params.cost.a}"
            )
    ratio = r_eff / params.mu
    alpha = ratio + 1.0
    log_alpha = math.log1p(ratio)
    k_log_alpha = params.k * log_alpha
    phi_k = math.exp(-k_log_alpha)
    v = _perpetuity(theta, k_log_alpha)
    rho = r_eff * params.mu / (r_eff + params.mu)
    mu0 = params.k * (r_eff + params.mu) / params.mu**2
    return EffectiveParams(theta=theta, r_eff=r_eff, alpha=alpha, phi_k=phi_k, rho=rho, mu0=mu0, v=v)


def perpetual_value(params: ModelParams) -> float:
    """Expected present value of the replacement payments over an infinite horizon."""
    return effective(params).v


def series_value(params: ModelParams, t: float, tol: float = DEFAULT_SERIES_TOL) -> float:
    """w(t) by the convolution series, truncated under a rigorous tail bound.

    Every F*m(t) with m > N is at most F*(N+1)(t), so the tail after N
    terms is at most tail(N) * F*(N+1)(t) with tail(N) = q^(N+1) / (1 - q).
    Summation stops after N terms once either

    - |theta| * tail(N) < tol, using only F* <= 1: the result is within
      ``tol`` of the full series; or
    - tail(N) * C(N+1) <= 2^-53 * (sum so far), where C(m) bounds
      F*m(t) = P(Poisson(mu t) >= m k) by Chernoff's
      exp(m k - mu t - m k ln(m k / (mu t))) once m k > mu t: the rest of
      the series is below the rounding error of the double-precision sum.

    The second rule ends the series after a few dozen terms where q is
    close to 1 (small r), which the first alone would need ~1/(1 - q)
    terms for.

    ``tol`` bounds the truncation only.  Rounding of the N-term sum adds up
    to about N * 2^-53 * |sum| (each F*n is exact to a few ulps), which is
    above ``tol`` for long sums: ~1e4 terms of a value near 1e4 at k = 1,
    r = 1e-8, t = 1e4 carry ~2e-9.  All terms F*n(t) for one t come from a
    single walk of the Poisson(mu t) pmf (:func:`poisson_tails`).
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    eff = effective(params)
    if t == 0.0:
        return 0.0
    k = params.k
    lam = params.mu * t
    tails = poisson_tails(lam, k)  # F*n(t) = P(Poisson(mu t) >= n k), n = 1, 2, ...
    q = eff.phi_k
    tail_scale = abs(eff.theta) / (1.0 - q)
    total = 0.0
    q_pow = 1.0
    n = 0
    while True:
        n += 1
        q_pow *= q
        total += q_pow * next(tails)
        bound = tail_scale * q_pow * q
        if bound < tol:
            break
        x = (n + 1) * k
        if x > lam:
            chernoff = math.exp(x - lam - x * math.log(x / lam))
            if bound * chernoff <= _UNIT_ROUNDOFF * abs(eff.theta) * total:
                break
    return eff.theta * total


def asymptotic_value(params: ModelParams, t: float) -> float:
    """Key-renewal approximation v - (theta*mu/(k*r_eff)) e^(-rho t).

    The coefficient is the tilted-tail integral divided by the tilted
    kernel mean, theta*mu/(k*r_eff).  Deliberately not clamped: the raw
    approximation goes negative for small t, and callers should see that.
    """
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    eff = effective(params)
    coeff = eff.theta * params.mu / (params.k * eff.r_eff)
    return eff.v - coeff * math.exp(-eff.rho * t)


def exact_k1_value(params: ModelParams, t: float) -> float:
    """Closed form (theta*mu/r_eff)(1 - e^(-rho t)) for a single-unit stock.

    For k = 1 the asymptotic expression is exact; any other k is a misuse.
    """
    if params.k != 1:
        raise ValueError(f"closed form only holds for k = 1, got k = {params.k}")
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    eff = effective(params)
    return -(eff.theta * params.mu / eff.r_eff) * math.expm1(-eff.rho * t)


def optimal_stock_scan(
    a: float,
    b: float,
    mu: float,
    r: float,
    k_max: int | None = None,
    growth: float = 0.0,
) -> tuple[int, float, list[tuple[int, float]]]:
    """Stock size maximising the perpetual value under linear costs, with its scan.

    Scans v_k = (b*k - a) / (alpha^k - 1) upward from the first k with
    positive payoff.  The envelope b*k / (alpha^k - 1) is strictly
    decreasing in k, so the scan stops with a proof of optimality as soon
    as the envelope is no longer above the incumbent; ``k_max`` (default
    10^6) caps the search domain.  Ties break toward the smaller k.

    Returns (k*, v*, scan), where scan lists (k, v_k) for every candidate
    up to the stopping point; raises if no k <= k_max has b*k > a, or if
    v* underflows to 0 (alpha^k past the double range at every candidate).
    """
    ModelParams(k=1, mu=mu, r=r, cost=LinearCost(a=a, b=b), growth=growth)  # input checks
    if not growth < r:
        raise ValueError(f"growth must satisfy 0 <= growth < r, got {growth!r}")
    if k_max is not None and not _is_integer(k_max):
        raise TypeError(f"k_max must be an integer, got {k_max!r}")
    cap = DEFAULT_KMAX if k_max is None else int(k_max)
    if cap < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max!r}")
    log_alpha = math.log1p((r - growth) / mu)

    first = max(1, math.floor(a / b) + 1)
    while first <= cap and b * first <= a:  # float guard at the feasibility edge
        first += 1
    scan: list[tuple[int, float]] = []
    best_k, best_v = None, -math.inf
    for k in range(first, cap + 1):
        if best_k is not None and _perpetuity(b * k, k * log_alpha) <= best_v:
            break
        value = _perpetuity(b * k - a, k * log_alpha)
        scan.append((k, value))
        if value > best_v:
            best_k, best_v = k, value
    if best_k is None:
        raise ValueError(f"no stock size up to k_max={cap} has positive payoff b*k - a")
    if best_v == 0.0:
        raise ValueError(
            f"optimal value underflows to 0: alpha^-k is below the double range from the first "
            f"feasible k = {first} on (k ln(alpha) = {first * log_alpha:.6g})"
        )
    return best_k, best_v, scan
