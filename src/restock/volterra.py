"""Direct numerical solution of the defective renewal equation.

The expected present value solves the second-kind Volterra equation

    w(t) = theta * q * F(t) + integral_0^t w(t - s) * q * f(s) ds,

whose kernel q*f has total mass q = phi^k(r_eff) < 1 (defective).  The
solver represents w as piecewise linear on a uniform grid and integrates
the kernel *exactly* over each panel using first moments of the gamma
density, which are themselves gamma cdfs one shape higher:

    int_panel f(s) ds           = F_k(b) - F_k(a),
    int_panel s f(s) ds         = (k/mu) * (F_{k+1}(b) - F_{k+1}(a)).

Both cdfs come from one sweep of ``erlang_cdf_grid``, which sums each
Poisson tail from its smaller side, so the panel masses are nonnegative
and accurate relative to themselves even where F_k is far below 1e-16.

Keeping the discrete kernel mass exact matters: plain pointwise
trapezoid weights carry a (mu*h)^2/12 mass defect that the renewal
recursion amplifies by 1/(1 - q), which for slowly discounted problems
(q near 1) inflates the long-horizon error by orders of magnitude.  With
exact panel moments the discrete fixed point equals v exactly and the
global error is a transient O(h^2).

The discrete equation is a lower-triangular Toeplitz system,
C(x) W(x) = G(x) mod x^(n+1) in power-series form, so it is solved as one
power-series division with FFT products (Brent & Kung, J. ACM 25(4), 1978;
Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6(3), 1985): Newton's
iteration y <- y - y (C y - 1) over the balanced sizes ..., ceil(n/4),
ceil(n/2), its last step folded into the division (Karp & Markstein, ACM
TOMS 23(4), 1997), and every product at the shortest exact cyclic length
(for the error block, the middle product's: Hanrot, Quercia & Zimmermann,
AAECC 14, 2004) rounded up to a 2^a 3^b 5^c size.  That is O(n log n) work
and O(n) memory in place of n step-by-step dot products.  The system is
implicit only through C's constant term 1 - q * int_panel1 (1 - s/h) f(s) ds,
which is strictly positive for any q <= 1, so the scheme is unconditionally
solvable, also where q rounds to 1 because k*r_eff/mu is below 2^-53 (the
classic k = 1 step bound is still validated to keep the documented step
contract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from restock.distributions import _check_real, erlang_cdf_grid
from restock.valuation import ModelParams, ValueCurve, effective

__all__ = ["GridSpec", "solve_renewal"]

DEFAULT_STEP = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Uniform solution grid: horizon ``t_max`` tiled by n_steps >= 0 steps ``h``."""

    t_max: float
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_max", _check_real("t_max", self.t_max, "nonnegative"))
        object.__setattr__(self, "h", _check_real("h", self.h, "positive"))
        if abs(self.n_steps * self.h - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(f"step h={self.h} does not tile t_max={self.t_max}")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.h)


def _fft_length(m: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= m, a length numpy's FFT transforms fast."""
    best, p5 = 1 << (m - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((m - 1) // p35).bit_length())  # least p35 * 2^a >= m
            p35 *= 3
        p5 *= 5
    return best


def _series_divide(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """First c.size coefficients of G(x)/C(x), for g.size == c.size and c[0] != 0.

    Newton's iteration takes y = 1/C to top = ceil(m/2) terms over the sizes
    ..., ceil(top/4), ceil(top/2), top.  Once y is correct to ``half``
    terms, C y - 1 starts at x^half, so a cyclic length of ``size`` is exact
    for that error block: the wrapped coefficients of C[:size] * y[:half]
    land below ``half``, where they are not read.  The same length holds all
    of y[:half] * err, so one spectrum of y serves both products.  The last
    Newton step is folded into the division: W = G y to top terms, then the
    upper terms are y times the residual G - C W, all at a length >= m.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    m = c.size
    top = (m + 1) // 2
    sizes = [top]
    while sizes[0] > 1:
        sizes.insert(0, (sizes[0] + 1) // 2)
    y = np.empty(top)
    y[0] = 1.0 / c[0]
    for half, size in zip(sizes, sizes[1:]):
        nfft = _fft_length(size)
        y_spec = rfft(y[:half], nfft)
        err = irfft(rfft(c[:size], nfft) * y_spec, nfft)[half:size]
        y[half:size] = -irfft(rfft(err, nfft) * y_spec, nfft)[: size - half]
    nfft = _fft_length(m)
    y_spec = rfft(y, nfft)
    del y
    w = np.empty(m)
    w[:top] = irfft(rfft(g[:top], nfft) * y_spec, nfft)[:top]
    residual = rfft(c, nfft)  # C W, multiplied in place to keep the peak memory down
    residual *= rfft(w[:top], nfft)
    residual = g[top:] - irfft(residual, nfft)[top:m]
    w[top:] = irfft(rfft(residual, nfft) * y_spec, nfft)[: m - top]
    return w


def solve_renewal(params: ModelParams, grid: GridSpec) -> ValueCurve:
    """Solve the renewal equation on the grid; global accuracy O(h^2).

    Returns the ``volterra`` ValueCurve on t_i = i*h, with w(0) = 0 (all of
    it at t_max = 0).  The error bound is absolute: O(h^2) plus a round-off
    floor of about 1e-13 * max|w| from the FFT products.  Relative accuracy where w is
    close to 0 is not promised.  The exact discrete solution is
    nonnegative (G and 1/C have nonnegative coefficients), so round-off
    below 0 is clipped.
    """
    eff = effective(params)
    n = grid.n_steps
    if n == 0:
        return ValueCurve(times=np.zeros(1), values=np.zeros(1), method="volterra")
    k, mu = params.k, params.mu
    h = grid.h
    if k == 1 and h * eff.phi_k * mu / 2.0 >= 1.0:
        raise ValueError(f"step too large for implicit diagonal: h={h} with mu={mu}")

    times = np.arange(n + 1) * h
    cdf_k, cdf_k1 = erlang_cdf_grid(k, mu, times)

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

    w = np.concatenate(([0.0], _series_divide(g, c)))
    np.maximum(w, 0.0, out=w)
    return ValueCurve(times=np.arange(n + 1) * h, values=w, method="volterra")
