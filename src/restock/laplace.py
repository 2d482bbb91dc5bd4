"""Laplace-domain representation of w and its numerical inversion.

The transform is the closed rational form

    w_hat(s) = theta * q * phi^k(s) / (s * (1 - q * phi^k(s))),

with q = phi^k(r_eff) and phi^k(s) = (mu/(s+mu))^k, evaluated from
L = ln(q * phi^k(s)), which has Re L < 0 for Re s > 0.

Inversion is Abate & Whitt's Fourier-series method on the Bromwich line
(Queueing Systems 10, 1992; ORSA J. Comput. 7(1), 1995), A = 30: with
s_j = A/(2t) + i*pi*j/t and u_j = (-1)^j Re w_hat(s_j), u_0 halved,
w(t) is e^(A/2)/t times the Euler average 2^-15 sum_m C(15, m) S_(n+m)
of the partial sums S of u_0, ..., u_(n+15).  The line passes right of
every pole: s = 0 and the ring s_p = mu*(omega_p/alpha - 1) about -mu.
n = floor(1.5 t max{Im s_p : |Re s_p| t < 45}/pi) + 64 over p <= k/2, at
most about 6.9k + 64 whatever mu*t is: a pole p >= 1 is live only while
mu*t/alpha < 22.5/sin^2(pi/k), which caps Im s_p * t at about 45k/pi.

The error estimate adds three terms.  Aliasing: the discretisation error
is sum_(l>=1) e^(-lA) w((2l+1)t), and w(T) <= v*(1 - alpha^(-mu*T)) by
Jensen, concave in T, so it is at most 3e^(-A)/(1 - e^(-A))^2 times
v*(1 - alpha^(-mu*t)).  Rounding: u*e^(A/2)/t * sum_j |w_hat_j|*(|L_j| + 1),
u = 2^-53.  Truncation: the last Euler step |E_n - E_(n-1)|.  ``invert``
raises where the estimate exceeds 1e-3 * max(|w|, min(1, 1e-6 * |v|)), or
it or the value is not finite: a very large v cannot widen the gate on
values below 1.  Over 936 points (k to 500, t from 0.05 mean cycles to
10/rho) none raised, the largest error against ``series_value`` was
8e-11 * max(theta, |w|), and the estimate was never below the error.
"""

from __future__ import annotations

import math

import numpy as np

from restock.valuation import EffectiveParams, ModelParams, _check_horizon, _pole, effective

__all__ = ["invert"]

# e^(-A) sets the aliasing error, e^(A/2) the amplification of rounding.
_A = 30.0
_ALIASING = 3.0 * math.exp(-_A) / math.expm1(-_A) ** 2
_EULER = np.array([math.comb(15, m) for m in range(16)]) / 2.0**15


def _log_qphi(s, eff: EffectiveParams):
    """L = -k ln(1 + s/mu) - k ln(alpha) for Re s > 0, with x + iy = s/mu.

    ln|1 + s/mu| is log1p(x(2 + x) + y^2)/2 where |s| <= mu, since
    ln(s + mu) - ln(mu) would lose the digits of s that s + mu rounds away,
    and ln(hypot(1 + x, y)) beyond, where x(2 + x) + y^2 could overflow.
    """
    x, y = np.real(s) / eff.mu, np.imag(s) / eff.mu
    size = np.hypot(x, y)
    near = np.minimum(size, 1.0)
    log_abs = np.where(
        size <= 1.0, 0.5 * np.log1p(near * near + 2.0 * np.minimum(x, 1.0)), np.log(np.hypot(1.0 + x, y))
    )
    return -eff.k * (log_abs + 1j * np.arctan2(y, 1.0 + x)) - eff.k_log_alpha


def _w_hat_raw(s, log_qphi, theta: float):
    """-theta e^L / (s expm1(L)); with Re L < 0, e^L never overflows."""
    return -theta * np.exp(log_qphi) / (s * np.expm1(log_qphi))


def _term_count(eff: EffectiveParams, t: float) -> int:
    """n = floor(1.5 t max{Im s_p : |Re s_p| t < 45}/pi) + 64 over the poles
    s_p of :func:`restock.valuation._pole`.

    |Re s_p| grows with p up to k/2, so the live poles are p = 0, ..., m;
    Im s_p = mu sin(2 pi p/k)/alpha grows with p up to k/4 and, over whole
    p, peaks at p <= (k+1)/4.  So the last live pole up to (k+1)/4 has the
    largest Im of the live ones, and the walk stops at the first dead pole
    (s_0 is real and adds nothing).
    """
    reach = 0.0
    for p in range(1, (eff.k + 1) // 4 + 1):
        pole = _pole(p, eff)[1]  # alpha s_p
        if not -pole.real / eff.alpha * t < 45.0:
            break
        reach = pole.imag / eff.alpha
    return math.floor(1.5 * t * reach / math.pi) + 64


def _gate(value: float, estimate: float, v: float, t: float) -> float:
    """value, unless estimate exceeds 1e-3 max(|value|, min(1, 1e-6 |v|)) or either is not finite."""
    if not (math.isfinite(value) and estimate <= 1e-3 * max(abs(value), min(1.0, 1e-6 * abs(v)))):
        raise ArithmeticError(
            f"Bromwich-line inversion failed its self-check at t={t}: "
            f"error estimate {estimate:.3e} on the value {value:.6g}"
        )
    return value


def _line_sum(eff: EffectiveParams, t: float, n: int) -> tuple[float, float]:
    """The Euler-summed line sum over s_0, ..., s_(n+15) and its error estimate."""
    s = _A / (2.0 * t) + 1j * (np.pi / t) * np.arange(n + _EULER.size)
    log_qphi = _log_qphi(s, eff)
    values = _w_hat_raw(s, log_qphi, eff.theta)
    terms = values.real.copy()
    terms[0] *= 0.5
    terms[1::2] *= -1.0
    partial = np.cumsum(terms)[n - 1 :]  # S_(n-1), ..., S_(n+15)
    scale = math.exp(_A / 2.0) / t
    value = scale * float(_EULER @ partial[1:])
    step = abs(value - scale * float(_EULER @ partial[:-1]))
    rounding = 2.0**-53 * scale * float(np.abs(values) @ (np.abs(log_qphi) + 1.0))
    aliasing = _ALIASING * eff.v * -math.expm1(-eff.mu * t / eff.k * eff.k_log_alpha)
    return value, step + rounding + aliasing


def invert(params: ModelParams, t: float) -> float:
    """Value at horizon t by inversion of the transform on the Bromwich line.

    t = 0 returns the exact w(0) = 0; a negative or non-finite t is a
    domain error.  The error estimate is the self-check: where it fails the
    gate, the call raises instead of returning a silently wrong value.
    """
    t = _check_horizon(t)
    eff = effective(params)
    if t == 0:
        return 0.0
    value, estimate = _line_sum(eff, t, _term_count(eff, t))
    return _gate(value, estimate, eff.v, t)
