"""Closed forms, convolution series, asymptotics, and the optimal stock size.

The per-cycle discount factor of a Gamma(k, mu) cycle under effective
rate r is q = phi^k(r) = alpha^(-k) with alpha = r/mu + 1.  Replacement n
then contributes theta * q^n * F*n(t) to the expected present value at
horizon t, giving

    w(t)   = theta * sum_{n>=1} q^n F*n(t),
    w(inf) = v = theta * q / (1 - q) = theta / (alpha^k - 1).

:func:`series_value` evaluates w(t) by one of two routes.  Under Poisson
demand F*n(t) = P(N >= n k) with N ~ Poisson(mu t), so the series sums by
parts to one expectation over the count, w(t) = v * E[1 - q^floor(N/k)]:
one walk of the Poisson pmf with no tolerance to set, in pieces of at
most 9 sqrt(mu t) + 2 pmf steps: O(sqrt(mu t)) steps whatever k is.  The
transform of w is rational with k simple poles s_j = mu (omega_j/alpha - 1),
omega_j the k-th roots of unity, so the residue (Heaviside) expansion

    w(t) = v + (theta/k) Re sum_j (1 + mu/s_j) e^(s_j t)

is exact (Abate & Whitt, INFORMS J. Comput. 18(4), 2006).  It costs O(k)
whatever mu t is, so it is tried where that undercuts the walk,
k < 2 sqrt(mu t), and returned where its computed rounding bound is at
most 2^-44 of the value; the walk covers every other point.  Its j = 0
term, with s_0 = -rho and the tilt rho = r*mu/(r+mu) that restores unit
mass to the kernel e^(rho s) q f(s), is the large-t approximation
w(t) ~= v - (theta*mu/(k*r)) e^(-rho t).

Cost growth at rate ``growth`` < r is handled by valuing everything at
the effective rate r - growth; all operations route through
:func:`effective` so the equivalence is exact at the bit level.

The module also states the one domain rule for every input of the
package, :func:`_check_real` for reals and :func:`_check_count` for
counts, each with one message.  Since shapes are integers,
P(Gamma(m, rate) <= t) = P(Poisson(rate*t) >= m): every gamma cdf is a
Poisson tail, summed by :func:`restock.volterra.erlang_cdf_grid` from its
smaller side, and each tail, like the series' walk, from a pmf value
anchored by Loader's saddle-point form (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000; :func:`_pmf` here), so it is
accurate relative to itself, deep tails included.  The module is pure
Python, so the scalar methods and the CLI start without numpy;
:func:`convolution_cdf`, the law of n consecutive cycles, which no method
calls and the benchmark harness traces here, imports the numpy primitive
on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "FixedCost",
    "LinearCost",
    "ModelParams",
    "GridSpec",
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
# P(Poisson(lam) < lam - 9 sqrt(lam)) < exp(-81/2) < 2^-58
_LOWER_SPAN = 9.0
# The residue sum is returned where its rounding bound is at most this
# fraction of the value, ~1e-14 relative like the walk.
_RESIDUE_TOL = 2.0**-44
# It is tried where k < _RESIDUE_REACH * sqrt(mu t): its k/2 pole pairs
# cost about 13 pmf steps each, the walk there at least about 17 sqrt(mu t)
# steps, so an attempt costs at most ~3/4 of the walk it may replace.
_RESIDUE_REACH = 2.0


def _numpy_scalars(*kinds: str) -> tuple[type, ...]:
    """numpy's abstract scalar types ``kinds``, or none while numpy is not
    loaded: no numpy scalar can exist before numpy is imported."""
    np = sys.modules.get("numpy")
    return () if np is None else tuple(getattr(np, kind) for kind in kinds)


def _check_real(name: str, x, sign: str = "") -> float:
    """The domain rule for every real input: a finite int or float scalar,
    Python or numpy, not a bool; ``sign`` "positive" or "nonnegative"
    narrows it.  Returns x as a Python float, raises ValueError."""
    # bool, a subclass of int, is excluded by hand
    if isinstance(x, (float, int, *_numpy_scalars("floating", "integer"))) and type(x) is not bool:
        try:
            finite = math.isfinite(x)
        except OverflowError:  # an int past the double range
            finite = False
        if finite and (x > 0 or not sign or (x == 0 and sign == "nonnegative")):
            return float(x)
    raise ValueError(f"{name} must be a finite {sign + ' ' if sign else ''}real, got {x!r}")


def _check_count(name: str, x, low: int) -> int:
    """The domain rule for every integer input: a Python or numpy integer,
    not a bool (TypeError), at least ``low`` (ValueError).  Returns int(x)."""
    if not isinstance(x, (int, *_numpy_scalars("integer"))) or type(x) is bool:
        raise TypeError(f"{name} must be an integer, got {x!r}")
    if x < low:
        raise ValueError(f"{name} must be >= {low}, got {x!r}")
    return int(x)


def _check_horizon(t) -> float:
    """The horizon check every pointwise method shares: t finite and >= 0."""
    return _check_real("t", t, "nonnegative")


# Loader's Stirling-formula error ln(n!) - ln(sqrt(2 pi n) (n/e)^n) for
# n = 1..15, rounded from 50-digit values; larger n use its series.
_STIRLERR = (
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
_SQRT_2PI = 2.5066282746310007
_EPS = 2.0**-53  # unit roundoff of a double


def _stirlerr(n: int) -> float:
    if n <= 15:
        return _STIRLERR[n - 1]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, lam: float) -> float:
    """Deviance x ln(x/lam) + lam - x without cancellation (Loader 2000)."""
    diff = x - lam
    if abs(diff) < 0.1 * (x + lam):
        v = diff / (x + lam)
        total = diff * v
        term = 2.0 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            bigger = total + term / j
            if bigger == total:
                return total
            total = bigger
            j += 2
    return x * math.log1p(diff / lam) - diff


def _pmf(x: int, lam: float) -> float:
    """P(Poisson(lam) = x), x >= 1 and lam > 0, by Loader's saddle-point form."""
    return math.exp(-_stirlerr(x) - _bd0(x, lam)) / (_SQRT_2PI * math.sqrt(x))


def convolution_cdf(n: int, t: float, shape: int, rate: float) -> float:
    """F*n(t) of the Gamma(shape, rate) cycle law, the probability that n
    consecutive stocks are exhausted by time t: the Gamma(n*shape, rate)
    cdf, and identically 1 for n = 0."""
    n = _check_count("n", n, 0)
    t = _check_horizon(t)
    shape = _check_count("shape", shape, 1)
    rate = _check_real("rate", rate, "positive")
    if n == 0:
        return 1.0
    from restock.volterra import erlang_cdf_grid  # numpy, loaded on first use

    return float(erlang_cdf_grid(n * shape, rate, [t])[0][0])


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
    :func:`_check_real` and :func:`_check_count`.

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
class GridSpec:
    """Uniform solution grid: horizon ``t_max`` tiled by n_steps >= 0 steps ``h``.

    A positive ``t_max`` needs at least one step: a step that rounds it to
    0 steps does not tile it.
    """

    t_max: float
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_max", _check_real("t_max", self.t_max, "nonnegative"))
        object.__setattr__(self, "h", _check_real("h", self.h, "positive"))
        n = self.n_steps
        if (n == 0 and self.t_max > 0) or abs(n * self.h - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(f"step h={self.h} does not tile t_max={self.t_max}")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.h)


@dataclass(frozen=True)
class EffectiveParams:
    """The one record every method reads once it has called :func:`effective`.

    theta: payment per replacement (currency)
    r_eff: effective discount rate r - growth
    alpha: r_eff/mu + 1
    phi_k: per-cycle discount factor alpha^(-k), in (0, 1); it rounds to 1
           when k*r_eff/mu is below 2^-53, while v stays finite
    rho:   tilt rate r_eff*mu/(r_eff+mu) = r_eff/alpha restoring unit
           kernel mass; governs the exponential approach of w(t) to v
    mu0:   mean of the tilted kernel, k*(r_eff+mu)/mu^2 = k*alpha/mu (time units)
    v:     perpetual value theta*phi_k/(1-phi_k) (currency)
    k, mu: stock size and demand intensity, as in ModelParams
    k_log_alpha: k ln(alpha) = -ln(phi_k) > 0, accurate where phi_k rounds to 1
    """

    theta: float
    r_eff: float
    alpha: float
    phi_k: float
    rho: float
    mu0: float
    v: float
    k: int
    mu: float
    k_log_alpha: float


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
    k, mu = params.k, params.mu
    alpha = r_eff / mu + 1.0
    k_log_alpha = k * math.log1p(r_eff / mu)
    phi_k = math.exp(-k_log_alpha)
    v = _perpetuity(theta, k_log_alpha)
    rho = r_eff * mu / (r_eff + mu)
    return EffectiveParams(theta=theta, r_eff=r_eff, alpha=alpha, phi_k=phi_k, rho=rho, mu0=k * alpha / mu, v=v,
                           k=k, mu=mu, k_log_alpha=k_log_alpha)


def perpetual_value(params: ModelParams) -> float:
    """Expected present value of the replacement payments over an infinite horizon."""
    return effective(params).v


def series_value(params: ModelParams, t: float) -> float:
    """w(t) exactly, by the residue sum where its bound is tight, else by one pmf walk.

    Where k < 2 sqrt(mu t), the residue sum of :func:`_residue_sum` (O(k)
    whatever mu t is) is tried first and returned if its computed rounding
    bound is at most 2^-44 of the value.  At large mu t the series and
    ``laplace`` then both rest on the transform's poles; every point below
    that gate, small mu t and heavy cancellation included, is walked.

    The walk: with F*n(t) = P(N >= n k) for N ~ Poisson(mu t), summing the
    series theta * sum_n q^n F*n(t) by parts gives one expectation over N:

        w(t) = v * E[1 - q^floor(N/k)] = v * sum_{j>=k} P(N = j) (1 - q^floor(j/k)).

    Every term is nonnegative, so the sum is accurate relative to itself,
    deep tails and q near 1 included.  The walk starts at
    j0 = max(k, floor(mu t)) from Loader's pmf and goes piece by piece, each
    inside one block j in [nk, nk+k), where the weight -expm1(n ln q) is
    constant, and at most ceil(9 sqrt(mu t)) + 1 terms long, the walk's
    reach on each side: up until the rest, at most p_j (j+1)/(j+1-mu t), is
    at most 2^-53 of the sum, then down to k until the rest, at most
    p_j j/(mu t-j) times the next weight, is.  The stop rule is tested at
    each piece's end, so the walk takes O(sqrt(mu t)) pmf steps whatever k
    is: about 17 sqrt(mu t), or 9 sqrt(mu t) where it starts at j0 = k >=
    mu t and only goes up.  All but 2^-58 of the mass is above
    b = mu t - 9 sqrt(mu t); where q^floor(b/k) < 2^-54, every weight that
    counts rounds to 1, and v is returned without either route.
    """
    t = _check_horizon(t)
    eff = effective(params)
    lam = eff.mu * t
    if lam == 0.0:
        return 0.0
    k, log_q = eff.k, -eff.k_log_alpha
    bulk = lam - _LOWER_SPAN * math.sqrt(lam)
    if bulk >= k and math.floor(bulk / k) * log_q < _LOG_HALF_ULP:
        return eff.v
    if k < _RESIDUE_REACH * math.sqrt(lam):
        value, bound = _residue_sum(eff, t)
        if bound <= _RESIDUE_TOL * abs(value) < math.inf:  # finite, and within the tolerance
            return value
    span = math.ceil(lam - bulk) + 1  # the walk's reach on each side
    j0 = max(k, math.floor(lam))
    p0 = _pmf(j0, lam)

    total = 0.0
    j, p = j0, p0  # block n holds j in [nk, nk + k)
    while True:  # up, piece by piece, from p_j0
        n = j // k
        end = min((n + 1) * k, j + span)
        piece = 0.0
        while j < end:
            piece += p
            j += 1
            p *= lam / j
        total += piece * -math.expm1(n * log_q)
        if p * (j + 1) <= _EPS * total * (j + 1 - lam):
            break

    j, p = j0, p0
    while j > k:  # down, piece by piece, from p_(j0-1)
        n = (j - 1) // k
        weight = -math.expm1(n * log_q)
        if p * j * weight <= _EPS * total * (lam - j):
            break
        end = max(n * k, j - span)
        piece = 0.0
        while j > end:
            p *= j / lam
            j -= 1
            piece += p
        total += piece * weight
    return eff.v * total


def _key_renewal_term(eff: EffectiveParams, t: float) -> float:
    """The j = 0 residue -(theta*mu/(k*r_eff)) e^(-rho t), at the pole s_0 = -rho.

    The coefficient is the tilted-tail integral divided by the tilted
    kernel mean; v plus this term is the key-renewal asymptotic.
    """
    return -(eff.theta * eff.mu / (eff.k * eff.r_eff)) * math.exp(-eff.rho * t)


def _pole(j: int, eff: EffectiveParams) -> tuple[complex, complex]:
    """omega_j - 1 and alpha s_j = mu (omega_j - 1) - r_eff for the pole
    s_j = mu (omega_j/alpha - 1), omega_j = e^(2 pi i j/k).

    omega_j - 1 is formed as 2i sin(pi j/k) e^(i pi j/k), without the
    cancellation of subtracting 1, so the real parts of both addends of
    alpha s_j are nonpositive.
    """
    half = math.pi * j / eff.k
    sin = math.sin(half)
    gap = complex(-2.0 * sin * sin, 2.0 * sin * math.cos(half))
    return gap, eff.mu * gap - eff.r_eff


def _residue_sum(eff: EffectiveParams, t: float) -> tuple[float, float]:
    """w(t) = v + (theta/k) Re sum_j mu omega_j / (alpha s_j) e^(s_j t), and a rounding bound.

    The poles come from :func:`_pole`, without cancellation; 1 + mu/s_j is
    written mu omega_j / (alpha s_j).  Only j <= k/2 is summed, the
    conjugate pairs doubled.  The residues are summed with their rounding
    errors (Knuth's TwoSum), then v and the errors are added, two roundings
    of w up to a u^2 k sum |term| remainder; no list, generator or closure
    is allocated.  With u = 2^-53 the bound is

        u ((4 k ln(alpha) + 7) |v| + (4 rho t + 6) |term_0|
           + sum_(j>=1) (13 |s_j| t + 34) |term_j| + 2 |w|),

    a first-order count of the roundings on each path, libm functions at
    one ulp: v's argument k ln(alpha) and each exponent s_j t carry a few
    relative roundings, which the exponential scales by k ln(alpha) and
    |s_j| t; the final additions round twice.  Against an adaptive-precision
    mpmath sum over 6,000 points with k <= 500 it was at least twice the
    error wherever it was below 2^-44 |w|.  Only ``effective`` fields
    enter, so a growth shift is exact here too.  Where theta*mu is past
    the double range the value or the bound is inf or nan.
    """
    k, lead = eff.k, _key_renewal_term(eff, t)
    mass = (4.0 * eff.k_log_alpha + 7.0) * abs(eff.v) + (4.0 * eff.rho * t + 6.0) * abs(lead)
    scale, t_alpha = eff.theta * eff.mu / k, t / eff.alpha
    total, spill = lead, 0.0  # the residues' sum and its rounding errors (TwoSum)
    for j in range(1, k // 2 + 1):
        gap, pole = _pole(j, eff)
        exponent = pole * t_alpha  # s_j t
        decay = math.exp(exponent.real)
        rotation = complex(decay * math.cos(exponent.imag), decay * math.sin(exponent.imag))
        term = scale * (1.0 + gap) / pole * rotation
        pair = 1.0 if 2 * j == k else 2.0
        mass += pair * (13.0 * abs(exponent) + 34.0) * abs(term)
        x = pair * term.real
        partial = total + x
        shift = partial - total
        spill += (total - (partial - shift)) + (x - shift)
        total = partial
    value = (eff.v + total) + spill
    return value, _EPS * (mass + 2.0 * abs(value))


def asymptotic_value(params: ModelParams, t: float) -> float:
    """Key-renewal approximation v - (theta*mu/(k*r_eff)) e^(-rho t).

    The j = 0 term of the residue sum (:func:`_key_renewal_term`).
    Deliberately not clamped: the raw approximation goes negative for
    small t, and callers should see that.  Its t -> inf limit is
    ``effective(params).v``.
    """
    t = _check_horizon(t)
    eff = effective(params)
    return eff.v + _key_renewal_term(eff, t)


def exact_k1_value(params: ModelParams, t: float) -> float:
    """Closed form (theta*mu/r_eff)(1 - e^(-rho t)) for a single-unit stock.

    For k = 1 the asymptotic expression is exact; any other k is a misuse.
    """
    if params.k != 1:
        raise ValueError(f"closed form only holds for k = 1, got k = {params.k}")
    t = _check_horizon(t)
    eff = effective(params)
    return _key_renewal_term(eff, 0.0) * math.expm1(-eff.rho * t)


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
    cost = LinearCost(a=a, b=b)
    a, b = cost.a, cost.b
    # ln(alpha) and the growth rule; a zero payment's perpetuity cannot overflow
    log_alpha = effective(ModelParams(k=1, mu=mu, r=r, cost=FixedCost(0.0), growth=growth)).k_log_alpha
    cap = DEFAULT_KMAX if k_max is None else _check_count("k_max", k_max, 1)

    # a / b may overflow to inf, which floor() refuses; no k <= cap is feasible then
    first = max(1, math.floor(a / b) + 1) if a / b < cap else cap + 1
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
        raise ValueError(f"no stock size up to k_max={cap} has positive payoff b*k - a (a={a!r}, b={b!r})")
    if best_v == 0.0:
        raise ValueError(
            f"optimal value underflows to 0: alpha^-k is below the double range from the first "
            f"feasible k = {first} on (k ln(alpha) = {first * log_alpha:.6g})"
        )
    return best_k, best_v, scan
