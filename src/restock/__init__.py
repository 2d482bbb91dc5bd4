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
and a CLI (``restock``) that emits CSV/JSON reports.
"""

from restock.distributions import (
    GammaLaw,
    convolution_cdf,
    counting_pgf,
    counting_pmf,
    gamma_cdf,
    gamma_pdf,
    laplace_phi,
    poisson_tails,
    sample_renewal_time,
)
from restock.laplace import InversionConfig, invert, w_hat
from restock.montecarlo import (
    MCEstimate,
    simulate_vk,
    simulate_wk,
    verify_perpetuity_equation,
)
from restock.valuation import (
    EffectiveParams,
    FixedCost,
    LinearCost,
    ModelParams,
    ValueCurve,
    asymptotic_value,
    effective,
    exact_k1_value,
    optimal_stock,
    optimal_stock_scan,
    perpetual_value,
    residual_value,
    series_value,
    tail_weight,
    tilted_kernel_moments,
)
from restock.volterra import GridSpec, solve_renewal

__version__ = "0.1.0"

__all__ = [
    "GammaLaw",
    "gamma_pdf",
    "gamma_cdf",
    "convolution_cdf",
    "poisson_tails",
    "counting_pmf",
    "counting_pgf",
    "laplace_phi",
    "sample_renewal_time",
    "ModelParams",
    "FixedCost",
    "LinearCost",
    "EffectiveParams",
    "ValueCurve",
    "effective",
    "perpetual_value",
    "series_value",
    "residual_value",
    "tail_weight",
    "asymptotic_value",
    "exact_k1_value",
    "optimal_stock",
    "optimal_stock_scan",
    "tilted_kernel_moments",
    "GridSpec",
    "solve_renewal",
    "InversionConfig",
    "w_hat",
    "invert",
    "MCEstimate",
    "simulate_wk",
    "simulate_vk",
    "verify_perpetuity_equation",
    "__version__",
]
