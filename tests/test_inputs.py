"""One domain rule for every input, with one message.

Every real input is a finite int or float scalar (Python or numpy, not a
bool), optionally positive or nonnegative; every count is a Python or numpy
integer (not a bool) at or above its lower bound.  Each public constructor
and entry point applies that rule, so each accepts and rejects the same
values and words the error the same way.
"""

import math

import numpy as np
import pytest

from restock import (
    FixedCost,
    GridSpec,
    LinearCost,
    ModelParams,
    asymptotic_value,
    exact_k1_value,
    invert,
    optimal_stock_scan,
    series_value,
    simulate_vk,
    simulate_wk,
    solve_renewal,
)
from restock.valuation import convolution_cdf
from restock.volterra import erlang_cdf_grid

TABLE = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
K1 = ModelParams(k=1, mu=1.0, r=0.02, cost=FixedCost(theta=1.0))
XS = np.array([0.5, 1.0])


def _model(**change):
    return ModelParams(**({"k": 1, "mu": 1.0, "r": 0.02, "cost": FixedCost(1.0)} | change))


def _scan(name):
    # r = 2 keeps growth = 1 below r and the scan to a few candidates
    return lambda x: optimal_stock_scan(**({"a": 1.0, "b": 1.0, "mu": 1.0, "r": 2.0} | {name: x}))


# entry point -> (name in the message, sign, call with the input set to x)
REALS = {
    "ModelParams.mu": ("mu", "positive", lambda x: _model(mu=x)),
    "ModelParams.r": ("r", "positive", lambda x: _model(r=x)),
    "ModelParams.growth": ("growth", "nonnegative", lambda x: _model(r=2.0, growth=x)),
    "FixedCost.theta": ("theta", "", FixedCost),
    "LinearCost.a": ("fixed cost a", "nonnegative", lambda x: LinearCost(a=x, b=1.0)),
    "LinearCost.b": ("unit margin b", "positive", lambda x: LinearCost(a=0.0, b=x)),
    "erlang_cdf_grid.rate": ("rate", "positive", lambda x: erlang_cdf_grid(2, x, XS)),
    "GridSpec.t_max": ("t_max", "nonnegative", lambda x: GridSpec(t_max=x, h=0.5)),
    "GridSpec.h": ("h", "positive", lambda x: GridSpec(t_max=1.0, h=x)),
    "convolution_cdf.t": ("t", "nonnegative", lambda x: convolution_cdf(1, x, 2, 1.0)),
    "convolution_cdf.rate": ("rate", "positive", lambda x: convolution_cdf(1, 1.0, 2, x)),
    "series_value.t": ("t", "nonnegative", lambda x: series_value(TABLE, x)),
    "asymptotic_value.t": ("t", "nonnegative", lambda x: asymptotic_value(TABLE, x)),
    "exact_k1_value.t": ("t", "nonnegative", lambda x: exact_k1_value(K1, x)),
    "invert.t": ("t", "nonnegative", lambda x: invert(TABLE, x)),
    "simulate_wk.t": ("t", "nonnegative", lambda x: simulate_wk(TABLE, x, 2, 0)),
    "simulate_wk.times": ("t", "nonnegative", lambda x: simulate_wk(TABLE, [1.0, x, 2.0], 2, 0)),
    "optimal_stock_scan.a": ("fixed cost a", "nonnegative", _scan("a")),
    "optimal_stock_scan.b": ("unit margin b", "positive", _scan("b")),
    "optimal_stock_scan.mu": ("mu", "positive", _scan("mu")),
    "optimal_stock_scan.r": ("r", "positive", _scan("r")),
    "optimal_stock_scan.growth": ("growth", "nonnegative", _scan("growth")),
}

# entry point -> (name in the message, lower bound, call with the input set to x)
COUNTS = {
    "ModelParams.k": ("k", 1, lambda x: _model(k=x)),
    "erlang_cdf_grid.shape": ("shape", 1, lambda x: erlang_cdf_grid(x, 1.0, XS)),
    "convolution_cdf.n": ("n", 0, lambda x: convolution_cdf(x, 1.0, 2, 1.0)),
    "convolution_cdf.shape": ("shape", 1, lambda x: convolution_cdf(1, 1.0, x, 1.0)),
    "optimal_stock_scan.k_max": ("k_max", 1, lambda x: optimal_stock_scan(0.5, 1.0, 1.0, 2.0, k_max=x)),
    "simulate_wk.n_paths": ("n_paths", 2, lambda x: simulate_wk(TABLE, 1.0, x, 0)),
    "simulate_wk.seed": ("seed", 0, lambda x: simulate_wk(TABLE, 1.0, 2, x)),
    "simulate_vk.n_paths": ("n_paths", 2, lambda x: simulate_vk(TABLE, x, 0)),
    "simulate_vk.seed": ("seed", 0, lambda x: simulate_vk(TABLE, 2, x)),
}


def _rejects(call, x, error, message):
    with pytest.raises(error) as info:
        call(x)
    # simulate_wk adds a pointer to simulate_vk after the rule's own text
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("entry", sorted(REALS))
def test_real_inputs_share_one_rule(entry):
    name, sign, call = REALS[entry]
    domain = f"a finite {sign} real" if sign else "a finite real"
    for x in (np.float32(1.0), np.int64(1), np.float64(1.0), 1, 1.0):
        call(x)
    # 10**400 is an int past the double range: named, not an OverflowError
    for x in (True, False, math.nan, math.inf, -math.inf, np.float64(-np.inf), 10**400, -(10**400), "1.0", None):
        _rejects(call, x, ValueError, f"{name} must be {domain}, got {x!r}")
    below = {"positive": 0.0, "nonnegative": -1e-300}.get(sign)
    if below is None:
        call(-1.0)
    else:
        _rejects(call, below, ValueError, f"{name} must be {domain}, got {below!r}")
    if sign == "nonnegative":
        call(0.0)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_inputs_share_one_rule(entry):
    name, low, call = COUNTS[entry]
    for x in (low, np.int64(low), np.int32(low + 1)):
        call(x)
    # None is not listed: it is k_max's default
    for x in (True, False, np.float32(low), float(low), math.nan, math.inf, str(low)):
        _rejects(call, x, TypeError, f"{name} must be an integer, got {x!r}")
    for x in (low - 1, np.int64(low - 1)):
        _rejects(call, x, ValueError, f"{name} must be >= {low}, got {x!r}")


def test_zero_fold_convolution_checks_its_law():
    # the zero-fold value is 1 whatever the law, but a bad law still raises
    with pytest.raises(ValueError, match="shape must be >= 1, got 0"):
        convolution_cdf(0, 1.0, 0, 1.0)
    with pytest.raises(ValueError, match="rate must be a finite positive real, got 0.0"):
        convolution_cdf(0, 1.0, 1, 0.0)


def test_numpy_scalars_are_stored_as_python_numbers():
    params = ModelParams(k=np.int64(3), mu=np.float32(2.0), r=np.float64(0.5), cost=FixedCost(np.float32(1.5)))
    assert [type(x) for x in (params.k, params.mu, params.r, params.growth, params.cost.theta)] == [
        int, float, float, float, float,
    ]
    assert series_value(params, np.float32(4.0)) == series_value(ModelParams(3, 2.0, 0.5, FixedCost(1.5)), 4.0)


def test_an_infinite_time_in_a_grid_points_to_the_perpetuity():
    for times in ([1.0, math.inf], (math.inf,), np.array([2.0, np.inf])):
        with pytest.raises(ValueError, match=r"got (np\.float64\()?inf\)?; simulate the perpetual value with simulate_vk"):
            simulate_wk(TABLE, times, 2, 0)


# entry point -> call whose expected demand mu*t = 1e300 * 1e9 overflows
OVERFLOWS = {
    "erlang_cdf_grid": lambda: erlang_cdf_grid(2, 1e300, [0.0, 1e9]),
    "solve_renewal": lambda: solve_renewal(_model(k=2, mu=1e300, r=1.0), GridSpec(t_max=1e10, h=1e9)),
}


@pytest.mark.parametrize("entry", sorted(OVERFLOWS))
def test_an_overflowing_demand_is_named(entry):
    # numpy's product would warn and leave nan cdfs, and nan values
    with pytest.raises(ValueError) as info:
        OVERFLOWS[entry]()
    assert str(info.value) == "rate * x overflows: rate = 1e+300, x up to 1000000000.0"
