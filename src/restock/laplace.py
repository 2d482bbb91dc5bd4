"""Laplace-domain representation of w and its numerical inversion.

The transform is the closed rational form

    w_hat(s) = theta * q * phi^k(s) / (s * (1 - q * phi^k(s))),

with q = phi^k(r_eff) and phi^k(s) = (mu/(s+mu))^k evaluated in log space.
For Re(s) > 0 we have |phi^k(s)| < 1, so the denominator stays away from
zero and the expression is the unique transform of a bounded function.

Inversion uses the fixed Talbot contour (Abate & Valko): M nodes on the
cotangent contour whose real-axis crossing scales like 2M/(5t).  Two
practical facts shape the implementation:

* In double precision the contour factor e^(2M/5) amplifies rounding, so
  accuracy *degrades* past M ~ 50-60; node counts are kept in the 24..64
  sweet spot and never doubled blindly.
* The transform has a ring of complex poles at mu*(e^(2*pi*i*j/k)/alpha - 1).
  For intermediate t the narrowing contour passes near them before their
  residue contribution has fully decayed.  Typical accuracy is 1e-9
  relative or better, but these points (theta = 1) pass the gate below
  while off ``series_value`` by

      k    mu     r       t      absolute  relative
      50   51.16  0.0574  12.38  7.7e-4    9.0e-5
      200  1      0.02    400    7.4e-6    3.9e-4
      500  10     0.02    150    1.19e-3   2.2e-3
      500  10     1e-4    50     2.81e-3   5.6e-3

``invert`` evaluates the contour at 32 and at 48 nodes, returns
the finer result, and raises if the two resolutions disagree beyond a 1e-3
relative sanity gate, or if either is not finite.  The gate is relative to
the returned value, down to an absolute floor of min(1, 1e-6 * |v|): a
value that small is trusted only if the two resolutions agree to
1e-9 * |v|, the inversion's typical accuracy at values of order v, and
never to worse than 1e-3 absolute, so a very large v (small r) cannot
widen the gate on values below 1.

Where w is a small fraction of v and the contour passes near the pole
ring, the gap can be a large fraction of the value and the call raises,
but large k alone does not mark the risk: the k=50 row above is a
moderate store 12.7 mean cycles out, and it passes the gate.

Near s = -mu at large k, q * phi^k(s) overflows a double; the transform
is evaluated from L = ln(q * phi^k(s)) so that it tends to -theta/s there
(see ``_w_hat_raw``).
"""

from __future__ import annotations

import math

import numpy as np

from restock.distributions import _check_horizon
from restock.valuation import EffectiveParams, ModelParams, _k_log_alpha, effective

__all__ = ["w_hat", "invert"]

# Nodes of the coarse contour; the fine one has _NODE_STEP more.
_NODE_COUNT = 32
_NODE_STEP = 16
_SELF_CHECK_REL = 1e-3
# Fraction of |v| below which the self-check stops being relative; the
# floor is capped at 1, where the gate becomes 1e-3 absolute.
_SELF_CHECK_FLOOR = 1e-6


def _w_hat_raw(s, eff: EffectiveParams, k: int, mu: float):
    """theta * q phi^k(s) / (s (1 - q phi^k(s))) with L = ln(q phi^k(s)) in log space.

    The ratio e^L / (1 - e^L) is 1 / expm1(-L) where Re L >= 0 and
    -e^L / expm1(L) elsewhere, so the exponential never overflows: near
    s = -mu at large k, where q phi^k is huge, the value tends to -theta/s,
    and far out on the contour, where it underflows, to 0.
    """
    log_qphi = k * (math.log(mu) - np.log(s + mu)) - _k_log_alpha(k, eff.r_eff, mu)
    large = log_qphi.real >= 0
    tame = np.where(large, -log_qphi, log_qphi)
    return eff.theta * np.where(large, 1.0, -np.exp(tame)) / (s * np.expm1(tame))


def w_hat(s: complex, params: ModelParams) -> complex:
    """Transform of the value function at a point with Re(s) > 0."""
    s = complex(s)
    if not s.real > 0:
        raise ValueError(f"w_hat requires Re(s) > 0, got {s}")
    eff = effective(params)
    return complex(_w_hat_raw(s, eff, params.k, params.mu))


def _talbot_nodes(t: float, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Contour points s_j and path weights gamma_j for the M-node fixed contour."""
    r_scale = 2.0 * m / (5.0 * t)
    theta = np.pi * np.arange(m) / m
    s = np.empty(m, dtype=complex)
    s[0] = r_scale
    cot = 1.0 / np.tan(theta[1:])
    s[1:] = r_scale * theta[1:] * (cot + 1j)
    weights = np.empty(m, dtype=complex)
    weights[0] = 0.5 * np.exp(r_scale * t)
    weights[1:] = np.exp(t * s[1:]) * (1.0 + 1j * theta[1:] * (1.0 + cot**2) - 1j * cot)
    return s, weights, r_scale


def _talbot(params: ModelParams, eff: EffectiveParams, t: float, m: int) -> float:
    """w(t) from the M-node contour: (r/M) * Re sum_j gamma_j * w_hat(s_j)."""
    s, weights, r_scale = _talbot_nodes(t, m)
    values = _w_hat_raw(s, eff, params.k, params.mu)
    return float(r_scale / m * np.sum((weights * values).real))


def invert(params: ModelParams, t: float) -> float:
    """Value at horizon t by contour inversion of the transform.

    t = 0 returns the exact w(0) = 0 without touching the contour; a
    negative or non-finite t is a domain error.  The coarse/fine node-count
    pair is the built-in self-check: their gap is the realized accuracy
    estimate, and a gap beyond 1e-3 of max(|value|, min(1, 1e-6 * |v|)), or
    a non-finite one, raises instead of returning a silently wrong value.
    """
    t = _check_horizon(t)
    eff = effective(params)
    if t == 0:
        return 0.0
    coarse = _talbot(params, eff, t, _NODE_COUNT)
    fine = _talbot(params, eff, t, _NODE_COUNT + _NODE_STEP)
    gap = abs(coarse - fine)
    scale = max(abs(fine), min(1.0, _SELF_CHECK_FLOOR * abs(eff.v)))
    if not gap <= _SELF_CHECK_REL * scale:
        raise ArithmeticError(
            f"contour inversion failed its resolution self-check at t={t}: "
            f"{_NODE_COUNT} vs {_NODE_COUNT + _NODE_STEP} nodes differ by {gap:.3e}"
        )
    return fine
