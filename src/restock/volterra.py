"""Direct numerical solution of the defective renewal equation.

The expected present value solves the second-kind Volterra equation

    w(t) = theta * q * F(t) + integral_0^t w(t - s) * q * f(s) ds,

whose kernel q*f has total mass q = phi^k(r_eff) < 1 (defective).  The
solver represents w as piecewise linear on a uniform grid and integrates
the kernel *exactly* over each panel using first moments of the gamma
density, which are themselves gamma cdfs one shape higher:

    int_panel f(s) ds           = F_k(b) - F_k(a),
    int_panel s f(s) ds         = (k/mu) * (F_{k+1}(b) - F_{k+1}(a)).

Keeping the discrete kernel mass exact matters: plain pointwise
trapezoid weights carry a (mu*h)^2/12 mass defect that the renewal
recursion amplifies by 1/(1 - q), which for slowly discounted problems
(q near 1) inflates the long-horizon error by orders of magnitude.  With
exact panel moments the discrete fixed point equals v exactly and the
global error is a transient O(h^2).

The discrete equation is a lower-triangular Toeplitz system,
C(x) W(x) = G(x) mod x^(n+1) in power-series form, so it is solved as one
power-series division: Newton's iteration y <- y - y (C y - 1) doubles the
correct terms of 1/C per step, and every product is an FFT convolution
(Brent & Kung, J. ACM 25(4), 1978; Hairer, Lubich & Schlichte, SIAM J. Sci.
Stat. Comput. 6(3), 1985).  That is O(n log n) work and O(n) memory in
place of n step-by-step dot products.  The system is implicit only through
C's constant term 1 - q * int_panel1 (1 - s/h) f(s) ds, which is strictly
positive, so the scheme is unconditionally solvable (the classic k = 1 step
bound is still validated to keep the documented step contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from restock.valuation import ModelParams, ValueCurve, effective

__all__ = ["GridSpec", "solve_renewal", "erlang_cdf_grid"]

DEFAULT_STEP = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Uniform solution grid: horizon ``t_max`` tiled by step ``h``."""

    t_max: float
    h: float

    def __post_init__(self) -> None:
        if not (isinstance(self.t_max, (int, float)) and math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be a finite positive real, got {self.t_max!r}")
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be a finite positive real, got {self.h!r}")
        if self.h > self.t_max / 2:
            raise ValueError(f"h={self.h} must not exceed t_max/2={self.t_max / 2}")
        n = round(self.t_max / self.h)
        if n < 2 or abs(n * self.h - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(f"step h={self.h} does not tile t_max={self.t_max}")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.h)


def erlang_cdf_grid(shape: int, rate: float, x: np.ndarray) -> np.ndarray:
    """Gamma(shape, rate) cdf on an array of points, integer shape only.

    Uses the Erlang complement 1 - e^(-rate x) sum_{j<shape} (rate x)^j / j!
    with log-space terms; all terms are positive so there is no
    cancellation and the absolute error stays at rounding level.  Grid
    preparation for the solver calls this instead of looping the scalar
    cdf; the two agree to ~1e-13 (property-tested).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    rx = rate * x
    out = np.zeros_like(rx)
    pos = rx > 0
    if not np.any(pos):
        return out
    with np.errstate(divide="ignore"):
        log_rx = np.where(pos, np.log(rx, where=pos, out=np.zeros_like(rx)), 0.0)
    q = np.zeros_like(rx)
    for j in range(shape):
        log_term = j * log_rx[pos] - rx[pos] - math.lgamma(j + 1)
        q[pos] += np.exp(log_term)
    out[pos] = 1.0 - q[pos]
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _product(a: np.ndarray, b: np.ndarray, nfft: int, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1 of the length-nfft cyclic convolution of a and b."""
    spec = np.fft.rfft(a, nfft)
    spec *= np.fft.rfft(b, nfft)
    return np.fft.irfft(spec, nfft)[lo:hi].copy()


def _series_inverse(c: np.ndarray) -> np.ndarray:
    """First c.size coefficients of 1/C(x) by Newton iteration, c[0] != 0.

    Once y is correct to ``half`` terms, C y - 1 starts at x^half, so each
    step computes only that error block and y's next ``size - half`` terms.
    A cyclic length of 2*half is exact for both products: the wrapped
    coefficients of C[:size] * y[:half] land below ``half``, where they
    are not read.
    """
    m = c.size
    y = np.empty(m)
    y[0] = 1.0 / c[0]
    half = 1
    while half < m:
        size = min(2 * half, m)
        err = _product(c[:size], y[:half], 2 * half, half, size)
        y[half:size] = -_product(y[: size - half], err, 2 * half, 0, size - half)
        half = size
    return y


def solve_renewal(params: ModelParams, grid: GridSpec) -> ValueCurve:
    """Solve the renewal equation on the grid; global accuracy O(h^2).

    Returns the ``volterra`` ValueCurve on t_i = i*h, with w(0) = 0.  The
    error bound is absolute: O(h^2) plus a round-off floor of about
    1e-13 * max|w| from the FFT products.  Relative accuracy where w is
    close to 0 is not promised.  The exact discrete solution is
    nonnegative (G and 1/C have nonnegative coefficients), so round-off
    below 0 is clipped.
    """
    eff = effective(params)
    if not 0.0 < eff.phi_k < 1.0:
        raise ArithmeticError(f"kernel mass {eff.phi_k} outside (0, 1); equation not defective")
    k, mu = params.k, params.mu
    h = grid.h
    n = grid.n_steps
    if k == 1 and h * eff.phi_k * mu / 2.0 >= 1.0:
        raise ValueError(f"step too large for implicit diagonal: h={h} with mu={mu}")

    times = np.arange(n + 1) * h
    cdf_k = erlang_cdf_grid(k, mu, times)
    cdf_k1 = erlang_cdf_grid(k + 1, mu, times)

    # Panel j covers [(j-1)h, jh]; a_panel is its kernel mass and b_panel the
    # mass-weighted mean offset int (s - (j-1)h)/h f(s) ds.
    a_panel = cdf_k[1:] - cdf_k[:-1]
    first_moment = (k / mu) * (cdf_k1[1:] - cdf_k1[:-1])
    del cdf_k1
    b_panel = (first_moment - times[:-1] * a_panel) / h
    del first_moment, times

    # Piecewise-linear w hits w_{i-j} and w_{i-j+1} across panel j, so the
    # convolution weight attached to w_l (0 < l < i) collects B from panel
    # i-l and (A - B) from panel i-l+1; w_i itself sees only (A_1 - B_1).
    # As power series the step equations read C(x) W(x) = G(x) mod x^(n+1),
    # and G(0) = W(0) = 0, so W/x = (G/x) / C.
    q = eff.phi_k
    c = np.empty(n)
    c[0] = 1.0 - q * (a_panel[0] - b_panel[0])
    c[1:] = a_panel[1:] - b_panel[1:] + b_panel[:-1]
    c[1:] *= -q
    del a_panel, b_panel
    g = cdf_k[1:]
    g *= eff.theta * q

    inverse = _series_inverse(c)
    del c
    w = np.empty(n + 1)
    w[0] = 0.0
    w[1:] = _product(g, inverse, 1 << (2 * n - 1).bit_length(), 0, n)
    np.maximum(w, 0.0, out=w)
    return ValueCurve(times=np.arange(n + 1) * h, values=w, method="volterra")
