"""Gamma renewal-time law and its convolutions.

With unit Poisson demand of intensity ``mu``, a full stock of ``shape``
units lasts a Gamma(shape, mu) time: the sum of ``shape`` exponential
inter-demand gaps.  Everything downstream (series, renewal equation,
transform inversion, simulation) is built on the handful of primitives
here:

* ``poisson_tails``               -- P(Poisson(lam) >= n*step), n = 1, 2, ...:
  every gamma cdf in the package, since shapes are integers and
  P(Gamma(m, rate) <= t) = P(Poisson(rate*t) >= m),
* ``erlang_cdf_grid``             -- its array form, two shapes in one sweep,
* ``convolution_cdf``             -- distribution of n consecutive cycles.

A Poisson tail is summed from its smaller side, starting from a pmf value
anchored by Loader's saddle-point form (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000), so each cdf is accurate
relative to itself, deep tails included, and one walk of the pmf serves
every threshold at one point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "GammaLaw",
    "poisson_tails",
    "erlang_cdf_grid",
    "convolution_cdf",
]


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
        if not isinstance(self.shape, (int, np.integer)) or isinstance(self.shape, bool):
            raise TypeError(f"shape must be an integer, got {self.shape!r}")
        if self.shape < 1:
            raise ValueError(f"shape must be >= 1, got {self.shape}")
        if not (isinstance(self.rate, (int, float)) and math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be a finite positive real, got {self.rate!r}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate


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
# P(Poisson(lam) < lam - 9 sqrt(lam)) < exp(-81/2) < 2^-58: the walk to a
# threshold at or below the mean starts this many standard deviations down
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


def poisson_tails(lam: float, step: int) -> Iterator[float]:
    """P(Poisson(lam) >= n*step) for n = 1, 2, ..., without end.

    Since P(Gamma(n*step, rate) <= t) = P(Poisson(rate*t) >= n*step), this
    yields the cdfs of 1, 2, ... consecutive Gamma(step, rate) cycles at
    one t.  Each value is summed from its smaller side, so it is accurate
    relative to itself, including deep tails:

    * thresholds at or below lam: one pmf walk up from lam - 9 sqrt(lam)
      gives 1 - P(X < n*step) for all of them;
    * thresholds above lam: the pmf is anchored exactly at the threshold
      and walked up in blocks of ``step`` until it falls below 2^-106 of
      their total; the tails are the block sums added from the top down,
      and every one that is at least 2^-53 of the total is yielded.  The
      next threshold is anchored afresh.

    The pmf anchor is Loader's (2000) saddle-point form, so nothing
    overflows or underflows before the value itself does.  As with any
    generator, the arguments are checked when the first value is drawn.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be a finite nonnegative real, got {lam!r}")
    if not isinstance(step, (int, np.integer)) or isinstance(step, bool):
        raise TypeError(f"step must be an integer, got {step!r}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    lam, step = float(lam), int(step)
    if lam == 0.0:
        yield from itertools.repeat(0.0)
    m = step
    if m <= lam:
        j = max(0, math.floor(lam - _LOWER_SPAN * math.sqrt(lam)))
        # thresholds up to j have all but < 2^-58 of the mass above them
        yield from itertools.repeat(1.0, j // step)
        m += j // step * step
        p = _pmf(j, lam)
        below = 0.0  # P(start <= X < j)
        while m <= lam:
            for i in range(j + 1, m + 1):
                below += p
                p *= lam / i
            j = m
            yield 1.0 - below
            m += step
    while True:
        p = _pmf(m, lam)
        if p == 0.0:
            yield from itertools.repeat(0.0)
        blocks = []
        total = 0.0
        j = m
        while p > _EPS * _EPS * total:
            block = 0.0
            for i in range(j + 1, j + step + 1):
                block += p
                p *= lam / i
            j += step
            blocks.append(block)
            total += block
        tail = 0.0
        for i in reversed(range(len(blocks))):
            tail += blocks[i]
            blocks[i] = tail
        # what the walk left out is below 2^-53 of each tail yielded here
        floor = _EPS * total
        for tail in blocks:
            if tail < floor:
                break
            yield tail
            m += step


def erlang_cdf_grid(shape: int, rate: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(shape, rate) and Gamma(shape + 1, rate) cdfs on an array of points.

    The array form of :func:`poisson_tails`: with lam = rate*x,
    F_shape = P(Poisson(lam) >= shape), summed from the smaller side,

    * where lam >= shape: 1 - sum_{j<shape} pmf_j, walked down from
      pmf_(shape-1);
    * elsewhere: sum_{j>=shape} pmf_j, walked up from pmf_shape;

    and one sweep gives both cdfs, since F_(shape+1) = F_shape - pmf_shape.
    Each walk stops where what is left is below 2^-53 of its largest term
    at every point, so values are accurate relative to themselves.  Points
    are swept in chunks of ``_GRID_CHUNK``, so the working arrays stay
    small next to the two results.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
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
    with np.errstate(over="ignore"):  # lam below ~j/1e308: the pmf is 0
        out = diff / lam
    np.log1p(out, out=out)
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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return next(poisson_tails(law.rate * t, n * law.shape)) if n else 1.0
