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

Reports go to stdout as CSV (curve-like commands; bit-exact header
``t,method,value,stderr``, LF endings, 10 significant digits) or JSON
(lossless floats).  Diagnostics go to stderr only, so stdout can be
piped.  Every command is deterministic given its full flag set; exit code
0 means the command completed and its tolerance gates passed, 1 a failed
gate, 2 a usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable

from restock import __version__
from restock.laplace import invert
from restock.montecarlo import DEFAULT_TAIL_TOL, MCEstimate, simulate_vk, simulate_wk
from restock.valuation import (
    DEFAULT_SERIES_TOL,
    FixedCost,
    LinearCost,
    ModelParams,
    asymptotic_value,
    effective,
    exact_k1_value,
    optimal_stock_scan,
    series_value,
)
from restock.volterra import DEFAULT_STEP, GridSpec, solve_renewal

__all__ = ["main", "console"]

CSV_HEADER = "t,method,value,stderr"
CURVE_METHODS = ("series", "volterra", "laplace", "asymptotic", "exact_k1", "mc", "all")
ANALYTIC_COMPARE = ("series", "volterra", "laplace")

# Published 10-unit example: the literal printed approximation is
# 41.097 - 45 e^(-t/101); the model-consistent tilt rate is 1/51.
_TABLE_PARAMS = dict(k=10, mu=1.0, r=0.02, a=1.0, b=1.0)
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
    "series is the solver ground truth at tolerance 1e-09."
)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _emit(lines: Iterable[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _diag(message: str) -> None:
    sys.stderr.write(message + "\n")


def _params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, required=True, help="stock size (units)")
    parser.add_argument("--mu", type=float, required=True, help="demand intensity (per unit time)")
    parser.add_argument("--r", type=float, required=True, help="discount rate (per unit time)")
    parser.add_argument("--theta", type=float, default=None, help="flat payment per replacement")
    parser.add_argument("--a", type=float, default=None, help="fixed cost per restocking operation")
    parser.add_argument("--b", type=float, default=None, help="unit margin per item")
    parser.add_argument("--growth", type=float, default=0.0, help="cost inflation rate (default 0)")


def _out_flag(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--out", choices=("csv", "json"), default=default, help=f"output format (default {default})")


def _build_params(args: argparse.Namespace) -> ModelParams:
    has_theta = args.theta is not None
    has_linear = args.a is not None or args.b is not None
    if has_theta and has_linear:
        raise ValueError("give either --theta or --a with --b, not both")
    if has_theta:
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
    if t_max < 0:
        raise ValueError(f"--t-max must be nonnegative, got {t_max}")
    if t_max == 0:
        return [0.0]
    if step is None:
        raise ValueError("--step is required when --t-max > 0")
    if step <= 0:
        raise ValueError(f"--step must be positive, got {step}")
    n = round(t_max / step)
    if n < 1 or abs(n * step - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError(f"--step {step} does not tile --t-max {t_max}")
    return [i * step for i in range(n + 1)]


def _volterra_values(params: ModelParams, times: list[float], h: float) -> list[float]:
    positive = [t for t in times if t > 0]
    if not positive:
        return [0.0 for _ in times]
    t_max = max(positive)
    curve = solve_renewal(params, GridSpec(t_max=t_max, h=h))
    values = []
    for t in times:
        index = round(t / h)
        if abs(index * h - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"grid time {t} is not a multiple of the solver step --h {h}")
        values.append(float(curve.values[index]))
    return values


def _method_rows(
    params: ModelParams,
    method: str,
    times: list[float],
    args: argparse.Namespace,
    series_tol: float = DEFAULT_SERIES_TOL,
) -> list[tuple]:
    """Rows (t, method, value, stderr-or-None) for one method tag."""
    if method == "series":
        return [(t, method, series_value(params, t, series_tol), None) for t in times]
    if method == "volterra":
        values = _volterra_values(params, times, args.h)
        return [(t, method, v, None) for t, v in zip(times, values)]
    if method == "laplace":
        return [(t, method, invert(params, t), None) for t in times]
    if method == "asymptotic":
        return [(t, method, asymptotic_value(params, t), None) for t in times]
    if method == "exact_k1":
        return [(t, method, exact_k1_value(params, t), None) for t in times]
    if method == "mc":
        rows = []
        for t in times:
            if t == 0:
                rows.append((t, method, 0.0, 0.0))
            else:
                est = simulate_wk(params, t, args.paths, args.seed)
                rows.append((t, method, est.mean, est.stderr))
        return rows
    raise ValueError(f"unknown method {method!r}")


def _rows_to_csv(rows: list[tuple]) -> list[str]:
    lines = [CSV_HEADER]
    for t, method, value, stderr in rows:
        tail = "" if stderr is None else _fmt(stderr)
        lines.append(f"{_fmt(t)},{method},{_fmt(value)},{tail}")
    return lines


def _rows_to_json(rows: list[tuple]) -> list[dict]:
    return [{"t": t, "method": method, "value": value, "stderr": stderr} for t, method, value, stderr in rows]


def cmd_value(args: argparse.Namespace) -> int:
    params = _build_params(args)
    eff = effective(params)
    if args.out == "csv":
        header = "k,mu,r,growth,theta,r_eff,alpha,phi_k,rho,mu0,v"
        row = ",".join(
            _fmt(x)
            for x in (
                params.k,
                params.mu,
                params.r,
                params.growth,
                eff.theta,
                eff.r_eff,
                eff.alpha,
                eff.phi_k,
                eff.rho,
                eff.mu0,
                eff.v,
            )
        )
        _emit([header, row])
    else:
        _emit_json(
            {
                "command": "value",
                "params": _params_echo(params),
                "effective": {
                    "theta": eff.theta,
                    "r_eff": eff.r_eff,
                    "alpha": eff.alpha,
                    "phi_k": eff.phi_k,
                    "rho": eff.rho,
                    "mu0": eff.mu0,
                },
                "v": eff.v,
                "metadata": {"version": __version__},
            }
        )
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    params = _build_params(args)
    times = _time_grid(args.t_max, args.step)
    if args.method == "all":
        methods = ["series", "volterra", "laplace", "asymptotic"]
        if params.k == 1:
            methods.append("exact_k1")
        if args.with_mc:
            methods.append("mc")
    else:
        methods = [args.method]
    rows: list[tuple] = []
    for method in methods:
        rows.extend(_method_rows(params, method, times, args, series_tol=args.tol))
    if args.out == "csv":
        _emit(_rows_to_csv(rows))
    else:
        _emit_json(
            {
                "command": "curve",
                "params": _params_echo(params),
                "methods": methods,
                "grid": {"t_max": args.t_max, "step": args.step},
                "tolerances": {"series_tol": args.tol, "volterra_h": args.h},
                "seed": args.seed if "mc" in methods else None,
                "rows": _rows_to_json(rows),
                "metadata": {"version": __version__},
            }
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    params = _build_params(args)
    times = _time_grid(args.t_max, args.step)
    per_method: dict[str, list[tuple]] = {}
    # --tol is the agreement gate only: the series is the ground truth at
    # its default tolerance, whatever the gate
    for method in ANALYTIC_COMPARE:
        per_method[method] = _method_rows(params, method, times, args)
    if args.with_mc:
        per_method["mc"] = _method_rows(params, "mc", times, args)

    max_gap = 0.0
    arg_gap = None
    names = list(ANALYTIC_COMPARE)
    for i, t in enumerate(times):
        for x in range(len(names)):
            for y in range(x + 1, len(names)):
                gap = abs(per_method[names[x]][i][2] - per_method[names[y]][i][2])
                if gap > max_gap:
                    max_gap, arg_gap = gap, (t, names[x], names[y])

    rows = [row for method in per_method for row in per_method[method]]
    passed = max_gap <= args.tol
    if args.out == "csv":
        _emit(_rows_to_csv(rows))
    else:
        _emit_json(
            {
                "command": "compare",
                "params": _params_echo(params),
                "methods": list(per_method),
                "grid": {"t_max": args.t_max, "step": args.step},
                "tolerances": {"agreement": args.tol, "volterra_h": args.h},
                "seed": args.seed if args.with_mc else None,
                "max_pairwise_discrepancy": max_gap,
                "agreement_passed": passed,
                "rows": _rows_to_json(rows),
                "metadata": {"version": __version__},
            }
        )
    where = f" at t={_fmt(arg_gap[0])} ({arg_gap[1]} vs {arg_gap[2]})" if arg_gap else ""
    _diag(f"max analytic discrepancy {max_gap:.3e}{where}; gate {args.tol:.3e}: " + ("pass" if passed else "FAIL"))
    return 0 if passed else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    k_star, v_star, scan = optimal_stock_scan(args.a, args.b, args.mu, args.r, k_max=args.k_max, growth=args.growth)
    if args.out == "csv":
        lines = ["k,v,is_optimal"]
        lines.extend(f"{kk},{_fmt(vv)},{1 if kk == k_star else 0}" for kk, vv in scan)
        _emit(lines)
    else:
        _emit_json(
            {
                "command": "optimize",
                "inputs": {"a": args.a, "b": args.b, "mu": args.mu, "r": args.r, "growth": args.growth, "k_max": args.k_max},
                "k_star": k_star,
                "v_star": v_star,
                "scan": [{"k": kk, "v": vv} for kk, vv in scan],
                "metadata": {"version": __version__},
            }
        )
    _diag(f"k* = {k_star}, v* = {_fmt(v_star)}")
    return 0


def cmd_paper_table(args: argparse.Namespace) -> int:
    params = ModelParams(
        k=_TABLE_PARAMS["k"],
        mu=_TABLE_PARAMS["mu"],
        r=_TABLE_PARAMS["r"],
        cost=LinearCost(a=_TABLE_PARAMS["a"], b=_TABLE_PARAMS["b"]),
    )
    eff = effective(params)
    rows: list[tuple] = []
    for t in _TABLE_TIMES:
        rows.append((t, "as_printed", _AS_PRINTED_LEVEL - _AS_PRINTED_COEFF * math.exp(-_AS_PRINTED_RATE * t), None))
    rows.append((math.inf, "as_printed", _AS_PRINTED_LEVEL, None))
    for t in _TABLE_TIMES:
        rows.append((t, "asymptotic", asymptotic_value(params, t), None))
    rows.append((math.inf, "asymptotic", eff.v, None))
    for t in _TABLE_TIMES:
        rows.append((t, "series", series_value(params, t, DEFAULT_SERIES_TOL), None))
    rows.append((math.inf, "series", eff.v, None))

    if args.out == "csv":
        _emit(_rows_to_csv(rows))
    else:
        _emit_json(
            {
                "command": "paper-table",
                "params": _params_echo(params),
                "tolerances": {"series_tol": DEFAULT_SERIES_TOL},
                "erratum_note": _ERRATUM_NOTE,
                "rows": _rows_to_json(rows),
                "metadata": {"version": __version__},
            }
        )
    _diag(_ERRATUM_NOTE)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _build_params(args)
    if args.perpetual:
        est = simulate_vk(params, args.paths, args.seed, args.tail_tol)
        mode = "perpetual"
    else:
        est = simulate_wk(params, args.horizon, args.paths, args.seed)
        mode = "horizon"
    if args.out == "csv":
        header = "mode,horizon,mean,stderr,n_paths,seed,truncation_bias_bound"
        horizon = "" if args.perpetual else _fmt(args.horizon)
        bias = "" if est.truncation_bias_bound is None else _fmt(est.truncation_bias_bound)
        _emit([header, f"{mode},{horizon},{_fmt(est.mean)},{_fmt(est.stderr)},{est.n_paths},{est.seed},{bias}"])
    else:
        _emit_json(
            {
                "command": "simulate",
                "params": _params_echo(params),
                "mode": mode,
                "horizon": None if args.perpetual else args.horizon,
                "tail_tol": args.tail_tol if args.perpetual else None,
                "estimate": {
                    "mean": est.mean,
                    "stderr": est.stderr,
                    "n_paths": est.n_paths,
                    "seed": est.seed,
                    "truncation_bias_bound": est.truncation_bias_bound,
                },
                "metadata": {"version": __version__},
            }
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restock",
        description="Replenishment-cost valuation of a k-unit store under Poisson demand.",
    )
    parser.add_argument("--version", action="version", version=f"restock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="perpetual value and derived constants")
    _params_flags(p_value)
    _out_flag(p_value, "json")
    p_value.set_defaults(func=cmd_value)

    p_curve = sub.add_parser("curve", help="one method on a horizon grid")
    _params_flags(p_curve)
    _out_flag(p_curve, "csv")
    p_curve.add_argument("--method", choices=CURVE_METHODS, required=True)
    p_curve.add_argument("--t-max", type=float, required=True, dest="t_max")
    p_curve.add_argument("--step", type=float, default=None)
    p_curve.add_argument("--h", type=float, default=DEFAULT_STEP, help="renewal-equation solver step")
    p_curve.add_argument("--tol", type=float, default=DEFAULT_SERIES_TOL, help="series truncation tolerance")
    p_curve.add_argument("--with-mc", action="store_true", dest="with_mc", help="append Monte Carlo rows to --method all")
    p_curve.add_argument("--paths", type=int, default=100_000)
    p_curve.add_argument("--seed", type=int, default=0)
    p_curve.set_defaults(func=cmd_curve)

    p_cmp = sub.add_parser("compare", help="cross-validate the analytic methods")
    _params_flags(p_cmp)
    _out_flag(p_cmp, "csv")
    p_cmp.add_argument("--t-max", type=float, required=True, dest="t_max")
    p_cmp.add_argument("--step", type=float, default=None)
    p_cmp.add_argument("--h", type=float, default=DEFAULT_STEP, help="renewal-equation solver step")
    p_cmp.add_argument("--tol", type=float, default=1e-4, help="max allowed analytic discrepancy")
    p_cmp.add_argument("--with-mc", action="store_true", dest="with_mc")
    p_cmp.add_argument("--paths", type=int, default=100_000)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=cmd_compare)

    p_opt = sub.add_parser("optimize", help="stock size maximising the perpetual value")
    p_opt.add_argument("--a", type=float, required=True)
    p_opt.add_argument("--b", type=float, required=True)
    p_opt.add_argument("--mu", type=float, required=True)
    p_opt.add_argument("--r", type=float, required=True)
    p_opt.add_argument("--growth", type=float, default=0.0)
    p_opt.add_argument("--k-max", type=int, default=None, dest="k_max")
    _out_flag(p_opt, "csv")
    p_opt.set_defaults(func=cmd_optimize)

    p_tab = sub.add_parser("paper-table", help="re-derive the published example table and diagnose it")
    _out_flag(p_tab, "csv")
    p_tab.set_defaults(func=cmd_paper_table)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo estimate")
    _params_flags(p_sim)
    _out_flag(p_sim, "json")
    mode = p_sim.add_mutually_exclusive_group(required=True)
    mode.add_argument("--horizon", type=float, default=None)
    mode.add_argument("--perpetual", action="store_true")
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL, dest="tail_tol")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote its diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, TypeError, ArithmeticError) as exc:
        _diag(f"error: {exc}")
        return 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
