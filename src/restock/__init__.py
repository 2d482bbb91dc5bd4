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
from one primitive, :func:`restock.volterra.erlang_cdf_grid`.  The series
takes the O(k) residue sum over the transform's poles where its rounding
bound is tight, and one walk of the Poisson pmf, accurate relative to
itself, everywhere else; neither has a tolerance to set.

The package's names load lazily (PEP 562): each is imported from its home
module on first access, so ``import restock`` loads no numpy, and neither
do the scalar methods -- the closed forms, the series and the stock scan
(:mod:`restock.valuation`, which also holds the input records and the
domain rule).  Only the array modules import numpy: :mod:`restock.volterra`,
:mod:`restock.laplace` and :mod:`restock.montecarlo`.
"""

import importlib

__version__ = "0.1.0"

# name -> home module, imported on first access
_HOMES = {
    "ModelParams": "restock.valuation",
    "FixedCost": "restock.valuation",
    "LinearCost": "restock.valuation",
    "EffectiveParams": "restock.valuation",
    "effective": "restock.valuation",
    "perpetual_value": "restock.valuation",
    "series_value": "restock.valuation",
    "asymptotic_value": "restock.valuation",
    "exact_k1_value": "restock.valuation",
    "optimal_stock_scan": "restock.valuation",
    "GridSpec": "restock.valuation",
    "solve_renewal": "restock.volterra",
    "invert": "restock.laplace",
    "MCEstimate": "restock.montecarlo",
    "MCCurve": "restock.montecarlo",
    "simulate_wk": "restock.montecarlo",
    "simulate_vk": "restock.montecarlo",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
