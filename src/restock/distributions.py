"""The package's one domain rule, and Loader's Poisson pmf.

The module states the one domain rule every input of the package goes
through: :func:`_check_real` for reals and :func:`_check_count` for
integer counts, each with one error message.

With unit Poisson demand of intensity ``mu``, a full stock of ``shape``
units lasts a Gamma(shape, mu) time: the sum of ``shape`` exponential
inter-demand gaps.  Since shapes are integers,
P(Gamma(m, rate) <= t) = P(Poisson(rate*t) >= m), so every gamma cdf in the
package is a Poisson tail, and all of them come from
:func:`restock.erlang.erlang_cdf_grid`.  A Poisson tail is summed from its
smaller side, starting from a pmf value anchored by Loader's saddle-point
form (C. Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000), so each cdf is accurate relative to itself, deep
tails included.  The scalar pmf ``_pmf`` also anchors the convolution
series' walk (:func:`restock.valuation.series_value`).

``convolution_cdf``, the distribution of n consecutive cycles, is one call
into ``erlang_cdf_grid`` that no method makes; it is kept only as the name
the benchmark harness traces at :mod:`restock.valuation`.

The module is pure Python: the scalar methods and the CLI start without
numpy, and ``convolution_cdf`` imports the numpy primitive on first use.
"""

from __future__ import annotations

import math
import sys

__all__ = ["convolution_cdf"]


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
# unit roundoff of a double
_EPS = 2.0**-53


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
    """n-fold convolution F*n(t) of the Gamma(shape, rate) cycle law: the
    probability that n consecutive stocks are exhausted by time t.

    The sum of n Gamma(shape, rate) cycles is Gamma(n*shape, rate), and the
    zero-fold convolution is identically 1.
    """
    n = _check_count("n", n, 0)
    t = _check_horizon(t)
    shape = _check_count("shape", shape, 1)
    rate = _check_real("rate", rate, "positive")
    if n == 0:
        return 1.0
    from restock.erlang import erlang_cdf_grid  # numpy, loaded on first use

    return float(erlang_cdf_grid(n * shape, rate, [t])[0][0])
