"""Closed forms, convolution series, asymptotics, and the optimal stock size.

The per-cycle discount factor of a Gamma(k, mu) cycle under effective
rate r is q = phi^k(r) = alpha^(-k) with alpha = r/mu + 1.  Replacement n
then contributes theta * q^n * F*n(t) to the expected present value at
horizon t, giving

    w(t)   = theta * sum_{n>=1} q^n F*n(t),
    w(inf) = v = theta * q / (1 - q) = theta / (alpha^k - 1).

Under Poisson demand F*n(t) = P(N >= n k) with N ~ Poisson(mu t), so the
series sums by parts to one expectation over the count,
w(t) = v * E[1 - q^floor(N/k)], which :func:`series_value` evaluates as one
walk of the Poisson pmf with no tolerance to set.  The exponentially
tilted kernel e^(rho s) q f(s) -- with the tilt rho = r*mu/(r+mu) that
restores unit kernel mass -- yields the large-t approximation
w(t) ~= v - (theta*mu/(k*r)) e^(-rho t).

Cost growth at rate ``growth`` < r is handled by valuing everything at
the effective rate r - growth; all operations route through
:func:`effective` so the equivalence is exact at the bit level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from restock.distributions import _EPS, _LOWER_SPAN, _check_count, _check_horizon, _check_real, _pmf
# The series no longer calls convolution_cdf; the name stays bound here
# because perfbench/spans.py wraps it at this module as a benchmark layer.
from restock.distributions import convolution_cdf  # noqa: F401

__all__ = [
    "FixedCost",
    "LinearCost",
    "ModelParams",
    "EffectiveParams",
    "effective",
    "perpetual_value",
    "series_value",
    "asymptotic_value",
    "exact_k1_value",
    "optimal_stock_scan",
]

DEFAULT_KMAX = 10**6

# ln(2^-54): 1 - x rounds to 1 for 0 <= x < 2^-54
_LOG_HALF_ULP = -54 * math.log(2.0)


@dataclass(frozen=True)
class FixedCost:
    """A flat payment ``theta`` per replacement (currency)."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _check_real("theta", self.theta))


@dataclass(frozen=True)
class LinearCost:
    """Replacement payoff b*k - a: fixed cost ``a`` per restocking operation,
    unit margin ``b`` per item."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _check_real("fixed cost a", self.a, "nonnegative"))
        object.__setattr__(self, "b", _check_real("unit margin b", self.b, "positive"))


Cost = FixedCost | LinearCost


@dataclass(frozen=True)
class ModelParams:
    """User-facing model parameters.

    k: stock size (units, integer >= 1)
    mu: demand intensity (items per unit time)
    r: discount interest rate (per unit time)
    cost: FixedCost(theta) or LinearCost(a, b)
    growth: cost inflation rate (per unit time), must stay below r

    k must be an integer, mu and r finite positive reals, growth a finite
    nonnegative one (numpy scalars are accepted and stored as Python
    numbers, bools are refused), the shared rule of
    :func:`restock.distributions._check_real` and ``_check_count``.

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
        object.__setattr__(self, "k", _check_count("k", self.k, 1))
        object.__setattr__(self, "mu", _check_real("mu", self.mu, "positive"))
        object.__setattr__(self, "r", _check_real("r", self.r, "positive"))
        if not isinstance(self.cost, (FixedCost, LinearCost)):
            raise TypeError(f"cost must be FixedCost or LinearCost, got {self.cost!r}")
        object.__setattr__(self, "growth", _check_real("growth", self.growth, "nonnegative"))


@dataclass(frozen=True)
class EffectiveParams:
    """Quantities derived from ModelParams that every method consumes.

    theta: payment per replacement (currency)
    r_eff: effective discount rate r - growth
    alpha: r_eff/mu + 1
    phi_k: per-cycle discount factor alpha^(-k), in (0, 1); it rounds to 1
           when k*r_eff/mu is below 2^-53, while v stays finite
    rho:   tilt rate r_eff*mu/(r_eff+mu) = r_eff/alpha restoring unit
           kernel mass; governs the exponential approach of w(t) to v
    mu0:   mean of the tilted kernel, k*(r_eff+mu)/mu^2 = k*alpha/mu (time units)
    v:     perpetual value theta*phi_k/(1-phi_k) (currency)
    """

    theta: float
    r_eff: float
    alpha: float
    phi_k: float
    rho: float
    mu0: float
    v: float


def _perpetuity(theta: float, k_log_alpha: float) -> float:
    """theta / (alpha^k - 1), given k ln(alpha) > 0.

    expm1 keeps the value accurate when r_eff/mu is tiny; past e^700 alpha^k
    would overflow, so theta alpha^-k / (1 - alpha^-k) is used there, and it
    underflows to 0 for large enough k ln(alpha).  A value past the double
    range raises.
    """
    if k_log_alpha <= 700.0:
        denom = math.expm1(k_log_alpha)
        if denom == 0.0:
            raise ValueError(f"alpha^k - 1 rounds to 0 (k ln(alpha) = {k_log_alpha!r}): r/mu underflows")
        value = theta / denom
    else:
        value = theta * math.exp(-k_log_alpha) / -math.expm1(-k_log_alpha)
    if not math.isfinite(value):
        raise ValueError(f"perpetual value overflows: theta = {theta!r}, k ln(alpha) = {k_log_alpha!r}")
    return value


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
    mu0 = params.k * alpha / params.mu
    return EffectiveParams(theta=theta, r_eff=r_eff, alpha=alpha, phi_k=phi_k, rho=rho, mu0=mu0, v=v)


def perpetual_value(params: ModelParams) -> float:
    """Expected present value of the replacement payments over an infinite horizon."""
    return effective(params).v


def series_value(params: ModelParams, t: float) -> float:
    """w(t) by the convolution series, summed as one walk of the Poisson pmf.

    With F*n(t) = P(N >= n k) for N ~ Poisson(mu t), summing the series
    theta * sum_n q^n F*n(t) by parts gives one expectation over N:

        w(t) = v * E[1 - q^floor(N/k)] = v * sum_{j>=k} P(N = j) (1 - q^floor(j/k)).

    Every term is nonnegative, so the sum is accurate relative to itself,
    deep tails and q near 1 included.  The walk starts at
    j0 = max(k, floor(mu t)) from Loader's pmf and goes block by block, over
    j in [nk, nk+k) where the weight -expm1(n ln q) is constant: up until
    the rest, at most p_j (j+1)/(j+1-mu t), is at most 2^-53 of the sum,
    then down to k until the rest, at most p_j j/(mu t-j) times the next
    weight, is; about 17 sqrt(mu t) pmf steps.  All but 2^-58 of the mass
    is above b = mu t - 9 sqrt(mu t); where q^floor(b/k) < 2^-54, every
    weight that counts rounds to 1, and v is returned without a walk.
    """
    t = _check_horizon(t)
    eff = effective(params)
    lam = params.mu * t
    if lam == 0.0:
        return 0.0
    k = params.k
    log_q = -k * math.log1p(eff.r_eff / params.mu)
    bulk = lam - _LOWER_SPAN * math.sqrt(lam)
    if bulk >= k and math.floor(bulk / k) * log_q < _LOG_HALF_ULP:
        return eff.v
    j0 = max(k, math.floor(lam))
    p0 = _pmf(j0, lam)
    top = j0 // k

    total = 0.0
    n, j, p = top, j0, p0  # block n holds j in [nk, nk + k)
    while True:  # up, block by block, from p_j0
        block = 0.0
        end = (n + 1) * k
        while j < end:
            block += p
            j += 1
            p *= lam / j
        total += block * -math.expm1(n * log_q)
        n += 1
        if p * (j + 1) <= _EPS * total * (j + 1 - lam):
            break

    n, j, p = top, j0, p0
    while j > k:  # down, block by block, from p_(j0-1)
        weight = -math.expm1(n * log_q)
        if p * j * weight <= _EPS * total * (lam - j):
            break
        block = 0.0
        while j > n * k:
            p *= j / lam
            j -= 1
            block += p
        total += block * weight
        n -= 1
    return eff.v * total


def asymptotic_value(params: ModelParams, t: float) -> float:
    """Key-renewal approximation v - (theta*mu/(k*r_eff)) e^(-rho t).

    The coefficient is the tilted-tail integral divided by the tilted
    kernel mean, theta*mu/(k*r_eff).  Deliberately not clamped: the raw
    approximation goes negative for small t, and callers should see that.
    Its t -> inf limit is ``effective(params).v``.
    """
    t = _check_horizon(t)
    eff = effective(params)
    coeff = eff.theta * params.mu / (params.k * eff.r_eff)
    return eff.v - coeff * math.exp(-eff.rho * t)


def exact_k1_value(params: ModelParams, t: float) -> float:
    """Closed form (theta*mu/r_eff)(1 - e^(-rho t)) for a single-unit stock.

    For k = 1 the asymptotic expression is exact; any other k is a misuse.
    """
    if params.k != 1:
        raise ValueError(f"closed form only holds for k = 1, got k = {params.k}")
    t = _check_horizon(t)
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
    checked = ModelParams(k=1, mu=mu, r=r, cost=LinearCost(a=a, b=b), growth=growth)
    a, b, mu, r, growth = checked.cost.a, checked.cost.b, checked.mu, checked.r, checked.growth
    if not growth < r:
        raise ValueError(f"growth must satisfy 0 <= growth < r, got {growth!r}")
    cap = DEFAULT_KMAX if k_max is None else _check_count("k_max", k_max, 1)
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
