"""Command-line interface: machine-readable reports over every method.

Subcommands
-----------
value       perpetual value and the derived constants
curve       one method evaluated on a uniform horizon grid
compare     series / renewal-equation / inversion (optionally Monte Carlo)
            side by side with the max pairwise discrepancy as an exit gate
optimize    stock size maximising the perpetual value, with the scan
paper-table the published 10-unit example table re-derived three ways,
            with a note on the inconsistency in its printed entries
simulate    seeded Monte Carlo run (finite horizon or perpetuity)

The CLI only parses and formats: :func:`_method_rows` maps a method tag to
library values and :func:`_report` writes every report to stdout, as CSV
(curve-like commands: bit-exact header ``t,method,value,stderr``, LF
endings, 10 significant digits) or JSON (lossless finite floats, null for
an infinite or NaN one, ``metadata`` last).  Diagnostics go to stderr
only, so stdout can be piped.  Every command is deterministic given its
full flag set; exit code 0 means the command completed and its tolerance
gates passed, 1 a failed gate, 2 a usage or validation error, or an input
whose arrays do not fit in memory.

A command line that starts with a subcommand builds only that subcommand's
parser (:func:`build_parser` given its name), with the same output; one
that names none (no arguments, ``--help``, ``--version``, an unknown
command) builds all six, as a bare ``build_parser()`` does.  From a fresh
interpreter on a 2-vCPU Xeon, the first ``curve --method series`` call
(11 points) takes ~2.8 ms with the one parser against ~3.7 ms with all six,
and ``value`` ~4.0 ms against ~5.2 ms; the interpreter's own start is
~38 ms.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import restock
from restock.valuation import (
    DEFAULT_KMAX,
    FixedCost,
    GridSpec,
    LinearCost,
    ModelParams,
    _check_real,
    asymptotic_value,
    effective,
    exact_k1_value,
    optimal_stock_scan,
    series_value,
)

__all__ = ["main", "console"]

# The array methods import numpy, about three quarters of a scalar command's
# time from a fresh interpreter, so these four names resolve on first use
# (PEP 562), through the package's own lazy names, and only the commands that
# run them load it.
# perfbench/spans.py wraps them, with series_value, as attributes of this
# module; the commands call them as ``_cli.<name>``, never as bare globals,
# so a wrapper installed there sees every call, before or after the first.
_LAZY = ("invert", "simulate_wk", "simulate_vk", "solve_renewal")
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(restock, name)
    globals()[name] = value  # later lookups skip this hook
    return value


CSV_HEADER = "t,method,value,stderr"
CURVE_METHODS = ("series", "volterra", "laplace", "asymptotic", "exact_k1", "mc", "all")
ANALYTIC_COMPARE = ("series", "volterra", "laplace")

# Published 10-unit example: the literal printed approximation is
# 41.097 - 45 e^(-t/101); the model-consistent tilt rate is 1/51.
_TABLE_PARAMS = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(a=1.0, b=1.0))
_TABLE_TIMES = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
_AS_PRINTED_LEVEL = 41.097
_AS_PRINTED_COEFF = 45.0
_AS_PRINTED_RATE = 1.0 / 101.0
_ERRATUM_NOTE = (
    "The printed finite-horizon entries of the published example follow "
    "41.097 - 45*exp(-t/101), but the model-consistent decay rate is "
    "rho = r*mu/(r+mu) = 1/51 and the convolution series gives w(10) ~= 4.023 "
    "rather than the printed 0.339. Columns: as_printed evaluates the printed "
    "approximation literally; asymptotic uses the model-consistent rate; "
    "series is the solver ground truth, accurate to double precision."
)


def _fmt(x) -> str:
    """A CSV cell: a float to 10 significant digits, an integer exactly."""
    return format(float(x), ".10g") if isinstance(x, float) else str(x)


def _diag(message: str) -> None:
    sys.stderr.write(message + "\n")


def _build_params(args: argparse.Namespace) -> ModelParams:
    if args.theta is not None and (args.a is not None or args.b is not None):
        raise ValueError("give either --theta or --a with --b, not both")
    if args.theta is not None:
        cost: FixedCost | LinearCost = FixedCost(theta=args.theta)
    elif args.a is not None and args.b is not None:
        cost = LinearCost(a=args.a, b=args.b)
    else:
        raise ValueError("cost specification required: --theta, or --a together with --b")
    return ModelParams(k=args.k, mu=args.mu, r=args.r, cost=cost, growth=args.growth)


def _params_echo(params: ModelParams) -> dict:
    if isinstance(params.cost, FixedCost):
        cost = {"kind": "fixed", "theta": params.cost.theta}
    else:
        cost = {"kind": "linear", "a": params.cost.a, "b": params.cost.b}
    return {"k": params.k, "mu": params.mu, "r": params.r, "growth": params.growth, "cost": cost}


def _time_grid(t_max: float, step: float | None) -> list[float]:
    """Report times 0, step, 2 * step, ..., then t_max itself; GridSpec decides whether step tiles t_max."""
    if _check_real("--t-max", t_max, "nonnegative") == 0:
        return [0.0]
    if step is None:
        raise ValueError("--step is required when --t-max > 0")
    _check_real("--step", step, "positive")
    return [*(i * step for i in range(GridSpec(t_max=t_max, h=step).n_steps)), t_max]


# value of each pointwise method at one time; the lambdas look the library
# functions up at call time, in this module's globals or, for the lazy
# names, as its attributes
_POINTWISE = {
    "series": lambda params, t: series_value(params, t),
    "laplace": lambda params, t: _cli.invert(params, t),
    "asymptotic": lambda params, t: asymptotic_value(params, t),
    "exact_k1": lambda params, t: exact_k1_value(params, t),
    "as_printed": lambda params, t: _AS_PRINTED_LEVEL - _AS_PRINTED_COEFF * math.exp(-_AS_PRINTED_RATE * t),
}


def _method_rows(
    params: ModelParams,
    method: str,
    times: list[float] | tuple[float, ...],
    args: argparse.Namespace,
) -> list[tuple]:
    """Rows (t, method, value, stderr-or-None) for one method tag.

    The grid methods make one call for all times: volterra solves once, to
    times[-1], and mc simulates every time in one call.
    """
    if method == "volterra":
        values = _cli.solve_renewal(params, GridSpec(t_max=times[-1], h=args.h))
        return [(t, method, float(values[GridSpec(t_max=t, h=args.h).n_steps]), None) for t in times]
    if method == "mc":
        curve = _cli.simulate_wk(params, times, args.paths, args.seed)
        return [(t, method, est.mean, est.stderr) for t, est in zip(times, curve.estimates)]
    return [(t, method, _POINTWISE[method](params, t), None) for t in times]


def _report(args: argparse.Namespace, command: str, rows: list[tuple] | None = None,
            csv: list[str] | None = None, **fields) -> None:
    """Write one report to stdout in the format ``args.out`` names.

    CSV: the given ``csv`` lines, else the rows under CSV_HEADER.  JSON: one
    object with ``command`` first, then ``fields`` in order, ``rows`` (when
    given) and ``metadata`` last, with null for every infinite or NaN float.
    """
    if args.out == "csv":
        if csv is None:
            csv = [CSV_HEADER]
            for t, method, value, stderr in rows:
                csv.append(f"{_fmt(t)},{method},{_fmt(value)},{'' if stderr is None else _fmt(stderr)}")
        sys.stdout.write("\n".join([*csv, ""]))  # LF-terminated without a second copy of the text
        return
    import json  # ~2 ms of start-up that a CSV report does not need

    if rows is not None:
        fields["rows"] = [{"t": t, "method": m, "value": v, "stderr": e} for t, m, v, e in rows]
    payload = {"command": command, **fields, "metadata": {"version": restock.__version__}}
    sys.stdout.write(json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n")


def _finite_or_null(node):
    """``node`` with every infinite or NaN float replaced by None, written as null: RFC 8259 has neither."""
    if isinstance(node, dict):
        return {key: _finite_or_null(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_finite_or_null(value) for value in node]
    if isinstance(node, float) and not math.isfinite(node):
        return None
    return node


def cmd_value(args: argparse.Namespace) -> int:
    params = _build_params(args)
    derived = effective(params)
    eff = {name: getattr(derived, name) for name in ("theta", "r_eff", "alpha", "phi_k", "rho", "mu0", "v")}
    row = {"k": params.k, "mu": params.mu, "r": params.r, "growth": params.growth, **eff}
    v = eff.pop("v")
    csv = [",".join(row), ",".join(_fmt(x) for x in row.values())]
    _report(args, "value", csv=csv, params=_params_echo(params), effective=eff, v=v)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    if args.with_mc and args.method != "all":
        raise ValueError("--with-mc adds Monte Carlo rows to --method all only; use --method mc for them alone")
    params = _build_params(args)
    times = _time_grid(args.t_max, args.step)
    if args.method == "all":
        optional = {"exact_k1": params.k == 1, "mc": args.with_mc, "all": False}
        methods = [method for method in CURVE_METHODS if optional.get(method, True)]
    else:
        methods = [args.method]
    rows = [row for method in methods for row in _method_rows(params, method, times, args)]
    _report(
        args,
        "curve",
        rows,
        params=_params_echo(params),
        methods=methods,
        grid={"t_max": args.t_max, "step": args.step},
        tolerances={"volterra_h": args.h},
        seed=args.seed if "mc" in methods else None,
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    params = _build_params(args)
    _check_real("--tol", args.tol, "nonnegative")
    times = _time_grid(args.t_max, args.step)
    methods = (*ANALYTIC_COMPARE, "mc") if args.with_mc else ANALYTIC_COMPARE
    per_method = {method: _method_rows(params, method, times, args) for method in methods}
    max_gap, arg_gap = 0.0, None
    for i, t in enumerate(times):
        for x, y in itertools.combinations(ANALYTIC_COMPARE, 2):
            gap = abs(per_method[x][i][2] - per_method[y][i][2])
            if gap > max_gap or math.isnan(gap) > math.isnan(max_gap):  # the first NaN gap stays: no gap exceeds it
                max_gap, arg_gap = gap, (t, x, y)
    passed = max_gap <= args.tol
    _report(
        args,
        "compare",
        [row for rows in per_method.values() for row in rows],
        params=_params_echo(params),
        methods=methods,
        grid={"t_max": args.t_max, "step": args.step},
        tolerances={"agreement": args.tol, "volterra_h": args.h},
        seed=args.seed if args.with_mc else None,
        max_pairwise_discrepancy=max_gap,
        agreement_passed=passed,
    )
    where = f" at t={_fmt(arg_gap[0])} ({arg_gap[1]} vs {arg_gap[2]})" if arg_gap else ""
    _diag(f"max analytic discrepancy {max_gap:.3e}{where}; gate {args.tol:.3e}: " + ("pass" if passed else "FAIL"))
    return 0 if passed else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    k_star, v_star, scan = optimal_stock_scan(args.a, args.b, args.mu, args.r, k_max=args.k_max, growth=args.growth)
    _report(
        args,
        "optimize",
        csv=["k,v,is_optimal", *(f"{kk},{_fmt(vv)},{int(kk == k_star)}" for kk, vv in scan)],
        inputs={name: getattr(args, name) for name in ("a", "b", "mu", "r", "growth", "k_max")},
        k_star=k_star,
        v_star=v_star,
        scan=[{"k": kk, "v": vv} for kk, vv in scan],
    )
    _diag(f"k* = {k_star}, v* = {_fmt(v_star)}")
    cap = DEFAULT_KMAX if args.k_max is None else args.k_max
    if scan[-1][0] == cap:  # the scan ran out before the envelope bound stopped it
        _diag(f"note: the scan stopped at k_max = {cap} before the envelope bound proved an optimum")
    return 0


def cmd_paper_table(args: argparse.Namespace) -> int:
    params = _TABLE_PARAMS
    v = effective(params).v
    rows = []
    for method, limit in (("as_printed", _AS_PRINTED_LEVEL), ("asymptotic", v), ("series", v)):
        rows += _method_rows(params, method, _TABLE_TIMES, args)
        rows.append((math.inf, method, limit, None))
    _report(
        args,
        "paper-table",
        rows,
        params=_params_echo(params),
        erratum_note=_ERRATUM_NOTE,
    )
    _diag(_ERRATUM_NOTE)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _build_params(args)
    if args.perpetual:
        mode, horizon, est = "perpetual", None, _cli.simulate_vk(params, args.paths, args.seed)
    else:
        mode, horizon, est = "horizon", args.horizon, _cli.simulate_wk(params, args.horizon, args.paths, args.seed)
    estimate = {name: getattr(est, name) for name in est.__slots__}
    cells = [mode, "" if horizon is None else _fmt(horizon), *map(_fmt, estimate.values())]
    csv = [",".join(["mode", "horizon", *estimate]), ",".join(cells)]
    _report(args, "simulate", csv=csv, params=_params_echo(params), mode=mode, horizon=horizon, estimate=estimate)
    return 0


# the subcommands, in the order the full parser registers them
_COMMANDS = ("value", "curve", "compare", "optimize", "paper-table", "simulate")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``restock`` parser with every subcommand, or only ``command``, whose lines it parses as the full one does."""
    parser = argparse.ArgumentParser(
        prog="restock",
        description="Replenishment-cost valuation of a k-unit store under Poisson demand.",
    )
    parser.add_argument("--version", action="version", version=f"restock {restock.__version__}")
    # argparse's usage line lists the registered names; a one-subcommand parser lists them all
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    # flag groups shared by several subcommands, each flag declared once and
    # added to each subparser that takes it
    def model(subparser):
        subparser.add_argument("--k", type=int, required=True, help="stock size (units)")
        subparser.add_argument("--mu", type=float, required=True, help="demand intensity (per unit time)")
        subparser.add_argument("--r", type=float, required=True, help="discount rate (per unit time)")
        subparser.add_argument("--theta", type=float, default=None, help="flat payment per replacement")
        subparser.add_argument("--a", type=float, default=None, help="fixed cost per restocking operation")
        subparser.add_argument("--b", type=float, default=None, help="unit margin per item")
        subparser.add_argument("--growth", type=float, default=0.0, help="cost inflation rate (default 0)")

    def grid(subparser):
        subparser.add_argument("--t-max", type=float, required=True, help="last report time; the grid starts at 0")
        subparser.add_argument("--step", type=float, default=None, help="report spacing; must tile --t-max (required if > 0)")
        subparser.add_argument("--h", type=float, default=0.01, help="Volterra solver step (default %(default)s)")

    def mc(subparser):
        subparser.add_argument("--paths", type=int, default=100_000, help="Monte Carlo paths (default %(default)s)")
        subparser.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default %(default)s)")

    def add(name, func, out, summary, *groups):
        subparser = sub.add_parser(name, help=summary)
        for group in groups:
            group(subparser)
        subparser.add_argument("--out", choices=("csv", "json"), default=out, help="output format (default %(default)s)")
        subparser.set_defaults(func=func)
        return subparser

    with_mc = "add seeded Monte Carlo rows (curve: --method all)"
    if command in (None, "value"):
        add("value", cmd_value, "json", "perpetual value and derived constants", model)
    if command in (None, "curve"):
        curve = add("curve", cmd_curve, "csv", "one method on a horizon grid", model, grid, mc)
        curve.add_argument("--method", choices=CURVE_METHODS, required=True, help="valuation method")
        curve.add_argument("--with-mc", action="store_true", help=with_mc)
    if command in (None, "compare"):
        compare = add("compare", cmd_compare, "csv", "cross-validate the analytic methods", model, grid, mc)
        compare.add_argument("--tol", type=float, default=1e-4, help="agreement gate (default %(default)s)")
        compare.add_argument("--with-mc", action="store_true", help=with_mc)
    if command in (None, "optimize"):
        optimize = add("optimize", cmd_optimize, "csv", "stock size maximising the perpetual value")
        for flag in ("--a", "--b", "--mu", "--r"):
            optimize.add_argument(flag, type=float, required=True, help="as for value (required here)")
        optimize.add_argument("--growth", type=float, default=0.0, help="as for value (default 0)")
        optimize.add_argument("--k-max", type=int, default=None, help="largest stock size scanned")
    if command in (None, "paper-table"):
        add("paper-table", cmd_paper_table, "csv", "re-derive the published example table and diagnose it")
    if command in (None, "simulate"):
        simulate = add("simulate", cmd_simulate, "json", "seeded Monte Carlo estimate", model, mc)
        mode = simulate.add_mutually_exclusive_group(required=True)
        mode.add_argument("--horizon", type=float, default=None, help="finite horizon t")
        mode.add_argument("--perpetual", action="store_true", help="perpetual value (infinite horizon)")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command line that starts with a subcommand needs that subcommand's parser only
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote its diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, TypeError, ArithmeticError) as exc:
        _diag(f"error: {exc}")
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        _diag(f"error: out of memory: {exc}")
        return 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
