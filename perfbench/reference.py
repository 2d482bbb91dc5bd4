"""High-precision reference values and the accuracy check of CLI output.

The transform of w is rational with k simple poles
s_j = mu * (omega_j / alpha - 1), omega_j the k-th roots of unity, so the
Heaviside (residue) expansion is exact:

    w(t) = v + (theta / k) * Re sum_j (1 + mu / s_j) * e^(s_j t),
    v    = theta / (alpha^k - 1),  alpha = r / mu + 1

(Abate & Whitt, "A unified framework for numerically inverting Laplace
transforms", INFORMS J. Comput. 18(4), 2006).  It is evaluated in mpmath at
50 digits, so it shares no code or rounding with the library under test.
The sum cancels for small t in double precision; at 50 digits and the
k = 10 stores benchmarked here it does not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import mpmath

DIGITS = 50

# Stated accuracy of each method (README method table), as absolute error.
SERIES_TOL = 1e-9  # the CLI's default --tol
VOLTERRA_ERR_AT_H = (7e-5, 0.05)  # O(h^2): ~7e-5 at h = 0.05 over 500 time units
LAPLACE_ABS = 4e-6  # worst-case absolute error of the fixed Talbot contour
MC_MAX_Z = 4.0  # the acceptance suite's rule for Monte Carlo rows


@dataclass(frozen=True)
class Store:
    """Model inputs of a workload: linear cost theta = b*k - a."""

    k: int
    mu: float
    r: float
    a: float
    b: float

    @property
    def theta(self) -> float:
        return self.b * self.k - self.a


def perpetual_value(store: Store) -> float:
    with mpmath.workdps(DIGITS):
        alpha = mpmath.mpf(store.r) / store.mu + 1
        return float(mpmath.mpf(store.theta) / (alpha**store.k - 1))


def horizon_value(store: Store, t: float) -> float:
    """w(t) by the residue expansion, rounded once to double."""
    if t == 0:
        return 0.0
    with mpmath.workdps(DIGITS):
        mu, t = mpmath.mpf(store.mu), mpmath.mpf(t)
        alpha = mpmath.mpf(store.r) / mu + 1
        total = mpmath.mpf(0)
        for j in range(store.k):
            s_j = mu * (mpmath.expjpi(mpmath.mpf(2 * j) / store.k) / alpha - 1)
            total += (1 + mu / s_j) * mpmath.exp(s_j * t)
        v = mpmath.mpf(store.theta) / (alpha**store.k - 1)
        return float(v + mpmath.mpf(store.theta) / store.k * mpmath.re(total))


def rounding_slack(printed: float) -> float:
    """Half a unit in the 10th significant digit of a CSV value (``.10g``)."""
    if printed == 0 or not math.isfinite(printed):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - 9) + 1e-15 * abs(printed)


def analytic_tolerance(method: str, h: float) -> float:
    if method == "series":
        return SERIES_TOL
    if method == "volterra":
        err, at_h = VOLTERRA_ERR_AT_H
        return err * (h / at_h) ** 2
    if method == "laplace":
        return LAPLACE_ABS
    raise ValueError(f"no stated accuracy for method {method!r}")


@dataclass(frozen=True)
class Row:
    t: float  # math.inf for the perpetual value
    method: str
    value: float
    stderr: float | None


def parse_rows(stdout: str) -> list[Row]:
    """Rows of a ``curve``/``compare`` CSV or of a ``simulate`` JSON report."""
    if stdout.lstrip().startswith("{"):
        report = json.loads(stdout)
        est = report["estimate"]
        t = math.inf if report["mode"] == "perpetual" else float(report["horizon"])
        return [Row(t, "mc", float(est["mean"]), float(est["stderr"]))]
    lines = stdout.splitlines()
    if not lines or lines[0] != "t,method,value,stderr":
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        t, method, value, stderr = line.split(",")
        rows.append(Row(float(t), method, float(value), float(stderr) if stderr else None))
    return rows


@dataclass
class Verdict:
    """Outcome of checking one invocation's rows against the reference."""

    bad_rows: list[str] = field(default_factory=list)
    max_abs_err: dict[str, float] = field(default_factory=dict)  # analytic methods
    max_abs_z: float = 0.0
    max_stderr: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.bad_rows


def check_rows(rows: list[Row], expected: dict[tuple[float, str], float], h: float) -> Verdict:
    """Every expected (t, method) row present once and within its method's accuracy.

    ``expected`` maps (t, method) to the reference value; ``h`` is the
    renewal-equation step the command ran with.
    """
    verdict = Verdict()
    seen = set()
    for row in rows:
        key = (row.t, row.method)
        if key not in expected or key in seen:
            verdict.bad_rows.append(f"unexpected row {key}")
            continue
        seen.add(key)
        ref = expected[key]
        err = row.value - ref
        if row.method == "mc":
            stderr = row.stderr if row.stderr is not None else math.nan
            verdict.max_stderr = max(verdict.max_stderr, stderr)
            if stderr > 0:
                z = abs(err) / stderr
            else:
                z = 0.0 if err == 0 else math.inf
            verdict.max_abs_z = max(verdict.max_abs_z, z)
            if not z <= MC_MAX_Z:
                verdict.bad_rows.append(f"{key}: z={z:.3g}")
        else:
            allowed = analytic_tolerance(row.method, h) + rounding_slack(row.value)
            verdict.max_abs_err[row.method] = max(verdict.max_abs_err.get(row.method, 0.0), abs(err))
            if not abs(err) <= allowed:
                verdict.bad_rows.append(f"{key}: error {err:.3e} > {allowed:.3e}")
    for key in expected.keys() - seen:
        verdict.bad_rows.append(f"missing row {key}")
    return verdict
