"""Direct numerical solution of the defective renewal equation.

The expected present value solves the second-kind Volterra equation

    w(t) = theta * q * F(t) + integral_0^t w(t - s) * q * f(s) ds,

whose kernel q*f has total mass q = phi^k(r_eff) < 1 (defective).  The
solver represents w as piecewise linear on the caller's uniform grid,
returns its values at the grid points as one array, and integrates the
kernel *exactly* over each panel using first moments of the gamma
density, which are themselves gamma cdfs one shape higher:

    int_panel f(s) ds           = F_k(b) - F_k(a),
    int_panel s f(s) ds         = (k/mu) * (F_{k+1}(b) - F_{k+1}(a)).

Both cdfs come from sweeps of :func:`erlang_cdf_grid`, the package's one
gamma-cdf primitive: one sweep gives both on an array of points as the
Poisson tails P(Poisson(mu*t) >= k) and >= k + 1 (the identity, and
Loader's pmf that anchors each walk, are in :mod:`restock.valuation`),
each summed from its smaller side, so the panel masses are nonnegative
and accurate relative to themselves even where F_k is far below 1e-16.
Both cdfs are exactly 1.0 from an expected demand mu*t bounded in closed
form (``_support_bound``): from there on every panel mass is exactly 0, so
the kernel's discrete support is L steps, usually far fewer than the
grid's (mu*h*L is about 41 at k = 1 and 64 at k = 10), and the sweeps stop
at that bound, at most 1.09 L + 1 steps.

Keeping the discrete kernel mass exact matters: plain pointwise
trapezoid weights carry a (mu*h)^2/12 mass defect that the renewal
recursion amplifies by 1/(1 - q), which for slowly discounted problems
(q near 1) inflates the long-horizon error by orders of magnitude.  With
exact panel moments the discrete fixed point equals v exactly and the
global error is a transient O(h^2).

The discrete equation is a lower-triangular Toeplitz system,
C(x) W(x) = G(x) mod x^(n+1) in power-series form, so it is solved as a
power-series division with FFT products (Brent & Kung, J. ACM 25(4), 1978;
Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6(3), 1985).  Since
C has only L terms, every grid runs over blocks of B steps (overlap-save,
Stockham 1966), B the least 2^a 3^b 5^c size >= min(n, max(L, 2048)), so a
grid of n <= B steps is one block: y = 1/C mod x^B once, by Newton's
iteration y <- y - y (C y - 1) over the balanced sizes ..., ceil(B/4),
ceil(B/2), B, each product at the shortest exact cyclic length (for the
error block, the middle product's: Hanrot, Quercia & Zimmermann, AAECC 14,
2004) rounded up to such a size.  Block b then solves W_b = y R_b mod x^B,
so C W_b = R_b mod x^B and the carry into block b + 1 is
x^-B (C W_b - R_b); at the cyclic length 2B that shift negates the odd
bins, so the next block's right-hand-side spectrum comes from this one's
and from W_b's.  Per block that is one inverse FFT for the values and one
forward FFT of them: O(n log L) work and O(L) memory besides the n + 1
values, in place of n step-by-step dot products.

The system is implicit only through C's constant term, the diagonal
1 - q * I with I = int_panel1 (1 - s/h) f(s) ds, summed as (1 - q) + q (1 - I)
with 1 - q from k ln(alpha): no term is negative, so it is at least 1 - q > 0
and every step that tiles the grid is solved, at every k, also where q rounds
to 1 because k*r_eff/mu is below 2^-53.
"""

from __future__ import annotations

import math

import numpy as np

from restock.valuation import (
    _EPS, _SQRT_2PI, EffectiveParams, GridSpec, ModelParams, _check_count, _check_real, _stirlerr, effective,
)

__all__ = ["solve_renewal"]

# Points per erlang_cdf_grid call of _kernel_cdfs, which sweeps in parts to
# bound its working arrays; smaller parts slow long sweeps (k = 10^4,
# mu*h = 0.01 on a 2-vCPU Xeon: parts of 2,048 points took 561 ms where
# parts of 8,192 took 418).
_GRID_CHUNK = 8192

# -ln of the Poisson tail below which 1 - tail rounds to exactly 1.0, with
# a margin: e^-40 = 4.2e-18 is 13 times below 2^-54.
_TAIL_EXPONENT = 40.0

# Fewest steps per block of the division: below a few thousand, the blocks'
# per-call overhead outweighs their shorter FFTs (a support of one step, as
# where q underflows to 0, would otherwise take a block per step).
_MIN_BLOCK = 2048


def erlang_cdf_grid(shape: int, rate: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(shape, rate) and Gamma(shape + 1, rate) cdfs on an array of points.

    With lam = rate*x, F_shape = P(Poisson(lam) >= shape), summed from the
    smaller side,

    * where lam >= shape: 1 - sum_{j<shape} pmf_j, walked down from
      pmf_(shape-1);
    * elsewhere: sum_{j>=shape} pmf_j, walked up from pmf_shape;

    and one sweep gives both cdfs, since F_(shape+1) = F_shape - pmf_shape.
    Each walk stops where what is left is below 2^-53 of its largest term
    at every point, so values are accurate relative to themselves.  The
    working arrays are as large as x; a caller with a long grid sweeps it
    in parts.
    """
    shape = _check_count("shape", shape, 1)
    rate = _check_real("rate", rate, "positive")
    x = np.asarray(x, dtype=float)
    # min and max reduce without a temporary the size of x; nan fails both
    top = float(x.max()) if x.size else 0.0
    if x.size and not (x.min() >= 0 and math.isfinite(top)):
        raise ValueError("x must be finite and nonnegative")
    if not math.isfinite(rate * top):  # a Python product: numpy's would warn
        raise ValueError(f"rate * x overflows: rate = {rate!r}, x up to {top!r}")
    lam = rate * x
    cdf = np.zeros(x.shape)
    cdf_next = np.zeros(x.shape)
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
    return cdf, cdf_next


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


def _series_inverse(c: np.ndarray, m: int) -> np.ndarray:
    """First m coefficients of 1/C(x), for c[0] != 0 (c may be shorter than m).

    Newton's iteration y <- y - y (C y - 1) runs over the sizes ...,
    ceil(m/4), ceil(m/2), m.  Once y is correct to ``half`` terms, C y - 1
    starts at x^half, so a cyclic length of ``size`` is exact for that error
    block: the wrapped coefficients of C[:size] * y[:half] land below
    ``half``, where they are not read.  The same length holds all of
    y[:half] * err, so one spectrum of y serves both products.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    sizes = [m]
    while sizes[0] > 1:
        sizes.insert(0, (sizes[0] + 1) // 2)
    y = np.empty(m)
    y[0] = 1.0 / c[0]
    for half, size in zip(sizes, sizes[1:]):
        nfft = _fft_length(size)
        y_spec = rfft(y[:half], nfft)
        err = irfft(rfft(c[:size], nfft) * y_spec, nfft)[half:size]
        y[half:size] = -irfft(rfft(err, nfft) * y_spec, nfft)[: size - half]
    return y


def _support_bound(k: int) -> float:
    """An expected demand lam_C > k past which the Gamma(k + 1) cdf, and so
    the Gamma(k) cdf, is exactly 1.0 in erlang_cdf_grid.

    1 - F_(k+1) = P(Poisson(lam) <= k) <= exp(-(d - k*log1p(d/k))) for
    d = lam - k > 0 (Chernoff), and lam_C = k + d is the least lam where that
    exponent reaches ``_TAIL_EXPONENT``.  That is at most 1.09 times the
    demand where the cdf first reads 1.0 (44.8 against 41.2 at k = 1, 69.4
    against 64.1 at k = 10, 10,921 against 10,853 at k = 10^4).  The
    exponent is increasing and convex in d, and at least d^2 / (2(k + d)),
    so Newton's iteration runs down to the root from the d where that lower
    bound reaches the target, staying above the root.
    """
    d = _TAIL_EXPONENT + math.sqrt(_TAIL_EXPONENT * (_TAIL_EXPONENT + 2.0 * k))
    while True:
        step = (d - k * math.log1p(d / k) - _TAIL_EXPONENT) * (k + d) / d
        if step < 1e-9 * d:
            return k + d
        d -= step


def _kernel_cdfs(k: int, mu: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(k) and Gamma(k + 1) cdfs at t_i = i*h for i = 0, ..., m, and
    where m < n, one exact 1.0 after them: m = min(n, floor(lam_C/(mu*h)) + 1),
    the first point past lam_C, where both cdfs are 1.0 (``_support_bound``).

    The sweep goes in the parts of ``_GRID_CHUNK`` points that a sweep to
    the grid's end would take, and cutting the last one at m leaves its
    values as they were: a part's walks are as long as its largest mu*t
    below k and its smallest at or above k need, and the points past m,
    all past lam_C > k, are neither.  m depends on mu*h alone, and where
    mu*h underflows to 0, or lam_C/(mu*h) overflows, m is n.
    """
    mu_h = mu * h
    lam_c = _support_bound(k)
    last = n if lam_c >= n * mu_h else min(n, math.floor(lam_c / mu_h) + 1)
    # the last 1.0, where m < n, is the pad: C's coefficient past panel m carries panel m's offset
    cdfs_k, cdfs_k1 = np.ones(last + 1 + (last < n)), np.ones(last + 1 + (last < n))
    for start in range(0, last + 1, _GRID_CHUNK):
        end = min(start + _GRID_CHUNK, last + 1)
        cdfs_k[start:end], cdfs_k1[start:end] = erlang_cdf_grid(k, mu, np.arange(start, end) * h)
    return cdfs_k, cdfs_k1


def _renewal_system(eff: EffectiveParams, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The step equations on a grid of n >= 1 steps as C(x) W(x)/x = G(x)/x
    mod x^n: C's coefficients up to its last nonzero one, and G/x's up to the
    grid's end or to where they turn constant, the last one returned being
    that constant theta*q.
    """
    n, h = grid.n_steps, grid.h
    k, mu = eff.k, eff.mu

    # The cdfs are exactly 1.0 past the last of the size + 1 <= n + 1 points
    # _kernel_cdfs returns, so the panels after its first ``size`` have zero mass.
    cdf_k, cdf_k1 = _kernel_cdfs(k, mu, h, n)
    size = cdf_k.size - 1

    # Panel j covers [(j-1)h, jh]; a_panel is its kernel mass and b_panel the
    # mass-weighted mean offset int (s - (j-1)h)/h f(s) ds.
    a_panel = cdf_k[1:] - cdf_k[:-1]
    first_moment = (k / mu) * (cdf_k1[1:] - cdf_k1[:-1])
    del cdf_k1
    b_panel = (first_moment - np.arange(size) * h * a_panel) / h
    del first_moment

    # Piecewise-linear w hits w_{i-j} and w_{i-j+1} across panel j, so the
    # convolution weight attached to w_l (0 < l < i) collects B from panel
    # i-l and (A - B) from panel i-l+1; w_i itself sees only (A_1 - B_1).
    # c_0 = 1 - q (A_1 - B_1) is summed as (1 - q) + q (1 - A_1 + B_1) >= 1 - q.
    # As power series the step equations read C(x) W(x) = G(x) mod x^(n+1),
    # and G(0) = W(0) = 0, so W/x = (G/x) / C, where c_j = 0 from j = support
    # on and g_j = theta*q from j = size - 1 on where size < n; g is cut
    # where it turns constant, often well before the sweep's end.
    q = eff.phi_k
    c = np.empty(size)
    c[0] = -math.expm1(-eff.k_log_alpha) + q * ((1.0 - a_panel[0]) + b_panel[0])
    c[1:] = a_panel[1:] - b_panel[1:] + b_panel[:-1]
    c[1:] *= -q
    del a_panel, b_panel
    support = int(np.flatnonzero(c)[-1]) + 1
    g = cdf_k[1:]
    g *= eff.theta * q
    changes = np.flatnonzero(g != g[-1])
    return c[:support], g[: changes[-1] + 2 if changes.size else 1]


def solve_renewal(params: ModelParams, grid: GridSpec) -> np.ndarray:
    """Solve the renewal equation on the grid; global accuracy O(h^2).

    Returns the n + 1 values w(i*h), i = 0, ..., n, as a float array, with
    w(0) = 0 (the one value [0.0] at t_max = 0); their times are the grid's
    own, ``np.arange(n + 1) * grid.h``, for a caller that needs them.  The
    error bound is absolute: O(h^2) plus a round-off floor from the FFT
    products, a few 1e-15 * max|w| where q is well below 1; where q is near
    1 no error decays and the floor grows linearly with t_max (k = 1,
    r = 1e-8, h = 0.01: 1.7e-14 * max|w| at t_max = 250, 4.7e-14 at
    t_max = 1000, 1.0e-13 at t_max = 2000).  Relative accuracy where w is
    close to 0 is not promised.  The exact discrete solution is
    nonnegative (G and 1/C have nonnegative coefficients), so round-off
    below 0 is clipped.

    The work is O(n log L), where L is the kernel's support in steps (past
    it both gamma cdfs are exactly 1.0), and the memory beyond the returned
    n + 1 points is O(L).  Each block of B >= min(n, L) steps costs two FFTs
    of length 2B, and a grid of n <= B steps is the one block: the carry
    into the next block comes from the block's own right-hand side.
    """
    n = grid.n_steps
    if n == 0:
        return np.zeros(1)
    c, g = _renewal_system(effective(params), grid)
    rfft, irfft = np.fft.rfft, np.fft.irfft
    block = _fft_length(min(n, max(c.size, _MIN_BLOCK)))
    nfft = 2 * block

    def rhs(start: int) -> np.ndarray:
        """G/x's coefficients start, ..., start + B - 1; past g they stay at its
        last one: theta*q past the cdf sweep, and past the grid's end, where
        none is read, no larger than G, so the round-off stays below w's."""
        part = np.full(block, g[-1])
        known = g[start : start + block]
        part[: known.size] = known
        return part

    # Block b of W/x is W_b = y R_b mod x^B, R_b being G_b plus
    # x^-B (R_(b-1) - C W_(b-1)), whose spectrum at the cyclic length 2B is
    # R_(b-1)'s less C W_(b-1)'s with the odd bins negated.  Only a carry
    # needs C's spectrum and G_b's, so a grid of one block makes neither;
    # past the cdf sweep G_b is constant and its spectrum is reused.
    w = np.empty(n + 1)
    w[0] = 0.0
    y_spec = rfft(_series_inverse(c, block), nfft)
    r_spec = rfft(rhs(0), nfft)
    c_spec = rfft(c, nfft) if n > block else None
    g_spec = None
    for start in range(0, n, block):
        stop = min(start + block, n)
        w[start + 1 : stop + 1] = irfft(r_spec * y_spec, nfft)[: stop - start]
        if stop < n:
            u_spec = rfft(w[start + 1 : stop + 1], nfft)
            u_spec *= c_spec
            r_spec -= u_spec
            del u_spec
            r_spec[1::2] *= -1.0
            if start < g.size:  # else G_b was the constant tail already
                g_spec = rfft(rhs(stop), nfft)
            r_spec += g_spec
    np.maximum(w, 0.0, out=w)
    return w
