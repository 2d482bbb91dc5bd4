"""Gamma cdfs on arrays of points: the package's one gamma-cdf primitive.

``erlang_cdf_grid`` gives the Gamma(shape) and Gamma(shape + 1) cdfs on an
array of points in one sweep, as the Poisson tails
P(Poisson(rate*x) >= shape) and >= shape + 1 (see :mod:`restock.distributions`
for the identity and Loader's pmf, which anchors each walk here too).  The
renewal-equation solver builds its panel moments from it.
"""

from __future__ import annotations

import math

import numpy as np

from restock.distributions import _EPS, _SQRT_2PI, _check_count, _check_real, _stirlerr

__all__ = ["erlang_cdf_grid"]

# points per sweep of erlang_cdf_grid
_GRID_CHUNK = 8192


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
    shape = _check_count("shape", shape, 1)
    rate = _check_real("rate", rate, "positive")
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
