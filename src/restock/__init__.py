"""Replenishment-cost valuation for a k-unit store under Poisson demand.

A stock of k units is consumed by unit Poisson demand and replaced
instantaneously (at a cost) each time it runs out, so replacement epochs
form a gamma renewal process.  This package evaluates the expected present
value of the replacement payments over a horizon, and the perpetual value,
by four mutually cross-checking routes:

* convolution series and closed forms        (:mod:`restock.valuation`)
* direct solution of the renewal equation    (:mod:`restock.volterra`)
* numerical Laplace-transform inversion      (:mod:`restock.laplace`)
* seeded Monte Carlo simulation              (:mod:`restock.montecarlo`)

plus a discrete search for the stock size maximising the perpetual value,
and a CLI (``restock``) that emits CSV/JSON reports.  Every gamma cdf comes
from one primitive, :func:`restock.distributions.erlang_cdf_grid`; the
series is one walk of the Poisson pmf, accurate relative to itself, with
no tolerance to set.
"""

from restock.distributions import GammaLaw, convolution_cdf
from restock.laplace import invert, w_hat
from restock.montecarlo import MCEstimate, simulate_vk, simulate_wk
from restock.valuation import (
    EffectiveParams,
    FixedCost,
    LinearCost,
    ModelParams,
    ValueCurve,
    asymptotic_value,
    effective,
    exact_k1_value,
    optimal_stock_scan,
    perpetual_value,
    series_value,
)
from restock.volterra import GridSpec, solve_renewal

__version__ = "0.1.0"

__all__ = [
    "GammaLaw",
    "convolution_cdf",
    "ModelParams",
    "FixedCost",
    "LinearCost",
    "EffectiveParams",
    "ValueCurve",
    "effective",
    "perpetual_value",
    "series_value",
    "asymptotic_value",
    "exact_k1_value",
    "optimal_stock_scan",
    "GridSpec",
    "solve_renewal",
    "w_hat",
    "invert",
    "MCEstimate",
    "simulate_wk",
    "simulate_vk",
    "__version__",
]
