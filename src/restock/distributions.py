"""Gamma renewal-time law and its convolutions.

With unit Poisson demand of intensity ``mu``, a full stock of ``shape``
units lasts a Gamma(shape, mu) time: the sum of ``shape`` exponential
inter-demand gaps.  Since shapes are integers,
P(Gamma(m, rate) <= t) = P(Poisson(rate*t) >= m), so every gamma cdf in the
package is a Poisson tail, and all of them come from one primitive:

* ``erlang_cdf_grid``             -- Gamma(shape) and Gamma(shape + 1) cdfs
  on an array of points, in one sweep,
* ``convolution_cdf``             -- distribution of n consecutive cycles,
  one call into ``erlang_cdf_grid``.

A Poisson tail is summed from its smaller side, starting from a pmf value
anchored by Loader's saddle-point form (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000), so each cdf is accurate
relative to itself, deep tails included.  The scalar pmf ``_pmf`` also
anchors the convolution series' walk (:func:`restock.valuation.series_value`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaLaw",
    "erlang_cdf_grid",
    "convolution_cdf",
]


def _is_integer(x) -> bool:
    """True for Python and numpy integers; bool is not a count."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_horizon(t) -> None:
    """The horizon check every pointwise method shares: t finite and >= 0."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be a finite nonnegative real, got {t!r}")


@dataclass(frozen=True)
class GammaLaw:
    """Gamma(shape, rate) law of the time one full stock lasts.

    ``shape`` is the stock size (number of exponential demand stages,
    integer >= 1); ``rate`` is the demand intensity mu > 0 in events per
    unit time.  The density is rate^shape x^(shape-1) e^(-rate x) / (shape-1)!.
    """

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if not _is_integer(self.shape):
            raise TypeError(f"shape must be an integer, got {self.shape!r}")
        if self.shape < 1:
            raise ValueError(f"shape must be >= 1, got {self.shape}")
        if not (isinstance(self.rate, (int, float)) and math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be a finite positive real, got {self.rate!r}")


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
# unit roundoff of a double
_EPS = 2.0**-53
# P(Poisson(lam) < lam - 9 sqrt(lam)) < exp(-81/2) < 2^-58
_LOWER_SPAN = 9.0
# points per sweep of erlang_cdf_grid
_GRID_CHUNK = 8192


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
    """P(Poisson(lam) = x), lam > 0, by Loader's saddle-point form."""
    if x == 0:
        return math.exp(-lam)
    return math.exp(-_stirlerr(x) - _bd0(x, lam)) / (_SQRT_2PI * math.sqrt(x))


def erlang_cdf_grid(shape: int, rate: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(shape, rate) and Gamma(shape + 1, rate) cdfs on an array of points.

    With lam = rate*x, F_shape = P(Poisson(lam) >= shape), summed from the
    smaller side,

    * where lam >= shape: 1 - sum_{j<shape} pmf_j, walked down from
      pmf_(shape-1);
    * elsewhere: sum_{j>=shape} pmf_j, walked up from pmf_shape;

    and one sweep gives both cdfs, since F_(shape+1) = F_shape - pmf_shape.
    Each walk stops where what is left is below 2^-53 of its largest term
    at every point, so values are accurate relative to themselves.  Points
    are swept in chunks of ``_GRID_CHUNK``, so the working arrays stay
    small next to the two results.
    """
    if not _is_integer(shape):
        raise TypeError(f"shape must be an integer, got {shape!r}")
    if shape < 1:
        raise ValueError(f"shape must be >= 1, got {shape}")
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be a finite positive real, got {rate!r}")
    x = np.asarray(x, dtype=float)
    # min and max reduce without a temporary the size of x; nan fails both
    if x.size and not (x.min() >= 0 and math.isfinite(x.max())):
        raise ValueError("x must be finite and nonnegative")
    cdf = np.empty(x.shape)
    cdf_next = np.empty(x.shape)
    flat_x, flat_cdf, flat_next = x.ravel(), cdf.ravel(), cdf_next.ravel()
    for start in range(0, flat_x.size, _GRID_CHUNK):
        part = slice(start, start + _GRID_CHUNK)
        _erlang_chunk(shape, rate * flat_x[part], flat_cdf[part], flat_next[part])
    return cdf, cdf_next


def _erlang_chunk(shape: int, lam: np.ndarray, cdf: np.ndarray, cdf_next: np.ndarray) -> None:
    """Fill cdf and cdf_next with P(Poisson(lam) >= shape) and >= shape + 1."""
    cdf.fill(0.0)
    cdf_next.fill(0.0)
    upper = (lam > 0.0) & (lam < shape)
    if upper.any():
        lam_up = lam[upper]
        head = _pmf_grid(shape, lam_up)
        pmf = head.copy()
        rest = np.zeros_like(lam_up)
        for j in range(shape + 1, _upper_end(shape, float(lam_up.max())) + 1):
            pmf *= lam_up
            pmf /= j
            rest += pmf
        cdf_next[upper] = rest
        rest += head
        cdf[upper] = rest

    lower = lam >= shape
    if lower.any():
        lam_lo = lam[lower]
        pmf = _pmf_grid(shape - 1, lam_lo)
        below_next = pmf * lam_lo  # pmf_shape
        below_next /= shape
        below = pmf.copy()
        for j in range(shape - 1, _lower_end(shape, float(lam_lo.min())), -1):
            pmf *= j
            pmf /= lam_lo
            below += pmf
        below_next += below
        cdf[lower] = 1.0 - below
        cdf_next[lower] = 1.0 - below_next


def _pmf_grid(j: int, lam: np.ndarray) -> np.ndarray:
    """P(Poisson(lam) = j) on an array lam > 0: :func:`_pmf` without the
    near-mean series, so its relative error is about |j - lam| * 2^-51."""
    if j == 0:
        return np.exp(-lam)
    diff = j - lam
    # lam below ~j/1e308 overflows diff/lam, and above j 2^53 rounds it to
    # -1, where log1p is -inf; the pmf is 0 at both ends
    with np.errstate(over="ignore", divide="ignore"):
        out = diff / lam
        np.log1p(out, out=out)
    np.maximum(out, -40.0, out=out)  # else log1p >= ln(2^-53); keeps that pmf 0, not inf
    out *= j
    out -= diff
    out += _stirlerr(j)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out /= _SQRT_2PI * math.sqrt(j)
    return out


def _upper_end(shape: int, lam: float) -> int:
    """Last j to add above pmf_shape: past it the rest, at most
    pmf_j lam / (j + 1 - lam), is below 2^-53 pmf_(shape+1).  The ratio
    grows with lam, so the largest lam of the walk decides."""
    ratio = 1.0  # pmf_j / pmf_(shape+1)
    j = shape + 1
    while ratio * lam > _EPS * (j + 1 - lam):
        j += 1
        ratio *= lam / j
    return j


def _lower_end(shape: int, lam: float) -> int:
    """Last j to add below pmf_(shape-1): past it the rest, at most
    pmf_j j / (lam - j), is below 2^-53 pmf_(shape-1).  The smallest lam
    of the walk decides."""
    ratio = 1.0  # pmf_j / pmf_(shape-1)
    j = shape - 1
    while j > 0 and ratio * j > _EPS * (lam - j):
        ratio *= j / lam
        j -= 1
    return j


def convolution_cdf(n: int, t: float, law: GammaLaw) -> float:
    """n-fold convolution F*n(t): probability that n consecutive stocks are
    exhausted by time t.

    The sum of n Gamma(shape, rate) cycles is Gamma(n*shape, rate), and the
    zero-fold convolution is identically 1.
    """
    if not _is_integer(n):
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _check_horizon(t)
    if n == 0:
        return 1.0
    return float(erlang_cdf_grid(n * law.shape, law.rate, np.array([t]))[0][0])
