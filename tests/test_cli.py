import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import restock
from restock import __version__
from restock import cli, montecarlo
from restock.cli import CSV_HEADER, build_parser, main
from restock.valuation import FixedCost, LinearCost, ModelParams, exact_k1_value, perpetual_value, series_value

TABLE_FLAGS = ["--k", "10", "--mu", "1", "--r", "0.02", "--a", "1", "--b", "1"]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestValue:
    def test_flagship_json(self, capsys):
        code, out, _ = run_cli(capsys, "value", *TABLE_FLAGS)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "value"
        assert report["v"] == pytest.approx(41.097, abs=5e-4)
        eff = report["effective"]
        assert eff["alpha"] == pytest.approx(1.02)
        assert eff["rho"] == pytest.approx(1 / 51, rel=1e-12)
        assert eff["mu0"] == pytest.approx(10.2)
        assert 0 < eff["phi_k"] < 1
        assert report["metadata"]["version"] == __version__

    def test_json_floats_round_trip_losslessly(self, capsys):
        _, out, _ = run_cli(capsys, "value", *TABLE_FLAGS)
        report = json.loads(out)
        expected = perpetual_value(ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(1.0, 1.0)))
        assert report["v"] == expected  # exact, not approximate

    def test_unit_case(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--k", "1", "--mu", "1", "--r", "1", "--theta", "1")
        assert code == 0
        assert json.loads(out)["v"] == pytest.approx(1.0, rel=1e-12)

    def test_csv_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "value", *TABLE_FLAGS, "--out", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["v"]) == pytest.approx(41.09693754, rel=1e-9)

    def test_growth_at_r_fails(self, capsys):
        code, out, err = run_cli(
            capsys, "value", "--k", "1", "--mu", "1", "--r", "0.02", "--theta", "1", "--growth", "0.02"
        )
        assert code == 2
        assert out == ""
        assert "divergent" in err

    def test_ambiguous_cost_fails(self, capsys):
        code, _, err = run_cli(capsys, "value", "--k", "1", "--mu", "1", "--r", "1", "--theta", "1", "--a", "1", "--b", "2")
        assert code == 2
        assert "not both" in err

    def test_missing_cost_fails(self, capsys):
        code, _, err = run_cli(capsys, "value", "--k", "1", "--mu", "1", "--r", "1")
        assert code == 2
        assert "cost specification" in err

    def test_csv_writes_an_integer_exactly(self, capsys):
        # a k past 10 digits is not rounded through %.10g
        argv = ["--k", "12345678901", "--mu", "1", "--r", "1e-12", "--theta", "1", "--out", "csv"]
        code, out, _ = run_cli(capsys, "value", *argv)
        assert code == 0
        assert parse_csv(out)[0]["k"] == "12345678901"

    def test_unit_rate_ratio_underflow_is_named(self, capsys):
        code, out, err = run_cli(capsys, "value", "--k", "1", "--mu", "1e300", "--r", "1e-300", "--theta", "1")
        assert code == 2
        assert out == ""
        assert err == "error: alpha^k - 1 rounds to 0 (k ln(alpha) = 0.0): r/mu underflows\n"


    def test_extreme_demand(self, capsys):
        # mu^2 overflows a double, k*alpha/mu does not; a v past the double range is named
        code, out, _ = run_cli(capsys, "value", "--k", "1", "--mu", "1e200", "--r", "1", "--theta", "1")
        assert code == 0
        assert json.loads(out)["effective"]["mu0"] == 1e-200
        code, out, err = run_cli(capsys, "value", "--k", "1", "--mu", "1e300", "--r", "1e-10", "--theta", "1")
        assert (code, out) == (2, "")
        assert "perpetual value overflows" in err


class TestCurve:
    def test_series_grid(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--method", "series", *TABLE_FLAGS, "--t-max", "500", "--step", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        rows = parse_csv(out)
        assert len(rows) == 51
        by_t = {float(row["t"]): row for row in rows}
        assert float(by_t[10.0]["value"]) == pytest.approx(4.023, abs=5e-3)
        assert by_t[10.0]["stderr"] == ""
        assert by_t[10.0]["method"] == "series"

    def test_series_at_a_huge_stock_walks_sqrt_mu_t_steps(self, capsys, pmf_products):
        # k = 10^6 at mu t up to 3 k: each row walks O(sqrt(mu t)) pmf steps, not O(k)
        pmf_products.most = sum(30 * math.sqrt(t) + 100 for t in (1e6, 2e6, 3e6))
        code, out, _ = run_cli(
            capsys,
            "curve", "--method", "series", "--k", "1000000", "--mu", "1", "--r", "1e-6", "--theta", "1",
            "--t-max", "3000000", "--step", "1000000",
        )
        assert code == 0
        assert [float(row["t"]) for row in parse_csv(out)] == [0.0, 1e6, 2e6, 3e6]

    def test_zero_horizon_asymptotic(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--method", "asymptotic", *TABLE_FLAGS, "--t-max", "0")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(41.09693754 - 45.0, abs=1e-6)

    def test_exact_k1_misuse_fails(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--method", "exact_k1", *TABLE_FLAGS, "--t-max", "10", "--step", "5")
        assert code == 2
        assert "k = 1" in err

    def test_unknown_method_fails(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--method", "fourier", *TABLE_FLAGS, "--t-max", "10", "--step", "5")
        assert code == 2

    def test_mc_rows_have_stderr(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve", "--method", "mc", *TABLE_FLAGS,
            "--t-max", "10", "--step", "5", "--paths", "20000", "--seed", "4",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [row["t"] for row in rows] == ["0", "5", "10"]
        assert rows[0]["value"] == "0" and rows[0]["stderr"] == "0"
        assert float(rows[2]["stderr"]) > 0

    def test_last_row_is_the_estimate_at_t_max(self, capsys):
        # 7 * 0.1 is 0.7000000000000001, and Monte Carlo streams are keyed by
        # t's bits: the row labelled 0.7 must be the estimate at 0.7 itself
        flags = ["--k", "1", "--mu", "1", "--r", "0.1", "--theta", "1", "--paths", "2000", "--seed", "3"]
        code, out, _ = run_cli(capsys, "curve", "--method", "mc", *flags, "--t-max", "0.7", "--step", "0.1")
        assert code == 0
        last = parse_csv(out)[-1]
        code, out, _ = run_cli(capsys, "simulate", "--horizon", "0.7", *flags, "--out", "csv")
        assert code == 0
        estimate = parse_csv(out)[0]
        assert (last["t"], last["value"], last["stderr"]) == ("0.7", estimate["mean"], estimate["stderr"])

    def test_json_grid_ends_at_t_max(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--method", "series", *TABLE_FLAGS, "--t-max", "0.7", "--step", "0.1", "--out", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["grid"]["t_max"] == report["rows"][-1]["t"] == 0.7
        assert [row["t"] for row in report["rows"]][:-1] == [i * 0.1 for i in range(7)]

    def test_method_all_covers_the_analytic_set(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve", "--method", "all", "--k", "1", "--mu", "1", "--r", "0.02", "--theta", "1",
            "--t-max", "20", "--step", "10", "--h", "0.05",
        )
        assert code == 0
        methods = {row["method"] for row in parse_csv(out)}
        assert methods == {"series", "volterra", "laplace", "asymptotic", "exact_k1"}

    def test_method_all_with_mc_appends_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve", "--method", "all", *TABLE_FLAGS,
            "--t-max", "10", "--step", "10", "--h", "0.1",
            "--with-mc", "--paths", "5000", "--seed", "3",
        )
        assert code == 0
        methods = {row["method"] for row in parse_csv(out)}
        assert methods == {"series", "volterra", "laplace", "asymptotic", "mc"}

    @pytest.mark.parametrize("method", ["series", "mc"])
    def test_with_mc_outside_method_all_is_refused(self, capsys, method):
        argv = ["--method", method, *TABLE_FLAGS, "--t-max", "10", "--step", "5", "--with-mc"]
        code, out, err = run_cli(capsys, "curve", *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: --with-mc adds Monte Carlo rows to --method all only; use --method mc for them alone\n"
        )

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--method", "series", *TABLE_FLAGS, "--t-max", "20", "--step", "10", "--out", "json"
        )
        assert code == 0
        report = json.loads(out)
        t10 = [row for row in report["rows"] if row["t"] == 10.0][0]
        params = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(1.0, 1.0))
        assert t10["value"] == series_value(params, 10.0)
        assert report["tolerances"] == {"volterra_h": 0.01}

    def test_volterra_at_underflowed_kernel_mass(self, capsys):
        # q = alpha^-k underflows to 0; every method agrees the value is 0
        argv = ["--k", "5000", "--mu", "0.0236", "--r", "0.0346", "--theta", "1", "--t-max", "349.2", "--step", "174.6"]
        for method in ("volterra", "series", "laplace"):
            code, out, err = run_cli(capsys, "curve", "--method", method, *argv, "--h", "174.6")
            assert (code, err) == (0, "")
            assert [float(row["value"]) for row in parse_csv(out)] == [0.0, 0.0, 0.0]

    def test_grid_past_memory_is_a_usage_error(self, capsys, monkeypatch):
        # a horizon of 1e15 steps cannot be allocated; exit 1 is kept for a failed gate
        def solve_renewal(params, grid):
            raise MemoryError("Unable to allocate 7.28 PiB for an array with shape (1000000000000001,)")

        monkeypatch.setattr(cli, "solve_renewal", solve_renewal)
        argv = ["--k", "10", "--mu", "1", "--r", "0.02", "--theta", "1", "--t-max", "1e15", "--step", "1e15"]
        code, out, err = run_cli(capsys, "curve", "--method", "volterra", *argv, "--h", "1")
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 7.28 PiB for an array with shape (1000000000000001,)\n"

    def test_overflowing_step_demand_is_named(self, capsys):
        # mu*h is past the double range: one error line, not nan rows
        argv = ["--k", "2", "--mu", "1e300", "--r", "1", "--theta", "1", "--t-max", "1e10", "--step", "1e9"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "curve", "--method", "volterra", *argv, "--h", "1e9")
        assert (code, out) == (2, "")
        assert err == "error: rate * x overflows: rate = 1e+300, x up to 1000000000.0\n"

    def test_overflowing_perpetual_value_is_named(self, capsys):
        # v is past the double range: a named error, not a walk without end
        argv = ["--k", "1", "--mu", "1", "--r", "1e-10", "--theta", "1e300"]
        for command in (["curve", "--method", "series", *argv, "--t-max", "10", "--step", "5"], ["value", *argv]):
            code, out, err = run_cli(capsys, *command)
            assert (code, out) == (2, "")
            assert "perpetual value overflows" in err

    @pytest.mark.parametrize(
        "grid, flag",
        [
            (["--t-max", "nan", "--step", "5"], "--t-max"),
            (["--t-max", "inf", "--step", "5"], "--t-max"),
            (["--t-max", "10", "--step", "nan"], "--step"),
            (["--t-max", "10", "--step", "inf"], "--step"),
        ],
    )
    def test_nonfinite_grid_is_named(self, capsys, grid, flag):
        code, out, err = run_cli(capsys, "curve", "--method", "series", *TABLE_FLAGS, *grid)
        assert (code, out) == (2, "")
        assert f"error: {flag} must be a finite" in err

    def test_step_must_tile_horizon(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--method", "series", *TABLE_FLAGS, "--t-max", "10", "--step", "3")
        assert code == 2
        assert "tile" in err

    def test_step_of_no_grid_point_fails(self, capsys):
        argv = ["curve", "--method", "series", "--k", "3", "--mu", "1", "--r", "0.02", "--theta", "1"]
        code, out, err = run_cli(capsys, *argv, "--t-max", "1e-10", "--step", "1")
        assert (code, out) == (2, "")
        assert err == "error: step h=1.0 does not tile t_max=1e-10\n"

    def test_step_required_past_zero_horizon(self, capsys):
        code, out, err = run_cli(capsys, "curve", "--method", "series", *TABLE_FLAGS, "--t-max", "10")
        assert (code, out) == (2, "")
        assert err == "error: --step is required when --t-max > 0\n"

    def test_volterra_one_step_grid(self, capsys):
        argv = ["curve", "--method", "volterra", *TABLE_FLAGS, "--t-max", "1", "--step", "1", "--h", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [(row["t"], row["value"]) for row in parse_csv(out)][0] == ("0", "0")

    @pytest.mark.parametrize(
        "t_max, step, rows",
        [
            # n = 2,000 steps below the kernel's 6,411-step support: one block
            ("20", "10", ["0,volterra,0,", "10,volterra,4.023101409,", "20,volterra,10.66339192,"]),
            # n = 10,000 steps: two blocks of 6,480
            ("100", "50", ["0,volterra,0,", "50,volterra,24.21449189,", "100,volterra,34.76327805,"]),
        ],
    )
    def test_volterra_stdout_is_pinned(self, capsys, t_max, step, rows):
        argv = ["curve", "--method", "volterra", *TABLE_FLAGS, "--h", "0.01", "--t-max", t_max, "--step", step]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "".join(f"{line}\n" for line in [CSV_HEADER, *rows])

    def test_volterra_report_times_must_tile_h(self, capsys):
        # three steps of --h reach --t-max 10, but no whole number reaches t = 5
        argv = ["curve", "--method", "volterra", *TABLE_FLAGS, "--t-max", "10", "--step", "5", "--h", str(10 / 3)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: step h={10 / 3} does not tile t_max=5.0\n"

    def test_volterra_zero_horizon_checks_h(self, capsys):
        argv = ["curve", "--method", "volterra", *TABLE_FLAGS, "--t-max", "0", "--h", "-1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error: h must be a finite positive real" in err


class TestCompare:
    def test_flagship_agreement(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", *TABLE_FLAGS, "--t-max", "50", "--step", "10", "--h", "0.05"
        )
        assert code == 0
        assert "pass" in err
        methods = {row["method"] for row in parse_csv(out)}
        assert methods == {"series", "volterra", "laplace"}

    def test_one_step_horizon(self, capsys):
        # --step and the solver step --h may both equal --t-max
        code, out, err = run_cli(capsys, "compare", *TABLE_FLAGS, "--t-max", "0.01", "--step", "0.01")
        assert code == 0
        assert "pass" in err
        last = [row for row in parse_csv(out) if row["t"] == "0.01"]
        assert [row["method"] for row in last] == ["series", "volterra", "laplace"]
        values = [float(row["value"]) for row in last]
        assert max(values) - min(values) <= 1e-4

    def test_kernel_mass_rounding_to_one(self, capsys):
        # k r/mu = 1e-17: phi_k rounds to 1.0, v = 1e17, and w(t) ~= t
        code, out, err = run_cli(
            capsys, "compare", "--k", "1", "--mu", "1", "--r", "1e-17", "--theta", "1",
            "--t-max", "10", "--step", "5", "--h", "0.05", "--out", "json",
        )
        assert code == 0
        assert "pass" in err
        rows = json.loads(out)["rows"]
        assert {row["method"] for row in rows if row["t"] == 10.0} == {"series", "volterra", "laplace"}
        assert all(row["value"] == pytest.approx(row["t"], abs=1e-6) for row in rows)

    def test_laplace_rows_print_the_series_digits(self, capsys):
        # the benchmark's compare grid: every laplace row agrees with the
        # series row at the same t in all 10 printed digits
        code, out, _ = run_cli(capsys, "compare", *TABLE_FLAGS, "--t-max", "500", "--step", "50", "--h", "0.05")
        assert code == 0
        rows = parse_csv(out)
        series = {row["t"]: row["value"] for row in rows if row["method"] == "series"}
        laplace = {row["t"]: row["value"] for row in rows if row["method"] == "laplace"}
        assert len(laplace) == 11
        assert laplace == series

    def test_large_stock_near_the_pole_ring_passes(self, capsys):
        # a fixed Talbot contour printed 5.707040228 here against the series'
        # 5.893108094, and the gate failed
        code, _, err = run_cli(
            capsys, "compare", "--k", "500", "--mu", "10", "--r", "0.0001", "--theta", "1",
            "--t-max", "315.2", "--step", "315.2",
        )
        assert code == 0
        assert "pass" in err

    def test_unachievable_gate_fails(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", *TABLE_FLAGS, "--t-max", "50", "--step", "25", "--h", "0.05", "--tol", "1e-12"
        )
        assert code == 1
        assert "FAIL" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_gate_is_named(self, capsys, tol):
        code, out, err = run_cli(capsys, "compare", *TABLE_FLAGS, "--t-max", "10", "--step", "5", "--tol", tol)
        assert (code, out) == (2, "")
        assert "error: --tol must be a finite nonnegative real" in err

    def test_gate_leaves_the_series_ground_truth(self, capsys):
        # a loose agreement gate must not loosen the series
        code, out, _ = run_cli(
            capsys, "compare", "--k", "1", "--mu", "1", "--r", "0.02", "--a", "0", "--b", "1",
            "--t-max", "500", "--step", "250", "--tol", "0.05", "--out", "json",
        )
        assert code == 0
        params = ModelParams(k=1, mu=1.0, r=0.02, cost=LinearCost(0.0, 1.0))
        series = {row["t"]: row["value"] for row in json.loads(out)["rows"] if row["method"] == "series"}
        assert series[500.0] == pytest.approx(exact_k1_value(params, 500.0), abs=1e-8)

    def test_mc_column_tracks_series(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", *TABLE_FLAGS, "--t-max", "20", "--step", "10", "--h", "0.05",
            "--with-mc", "--paths", "50000", "--seed", "42", "--out", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_pairwise_discrepancy"] < 1e-4
        rows = report["rows"]
        params = ModelParams(k=10, mu=1.0, r=0.02, cost=LinearCost(1.0, 1.0))
        for row in rows:
            if row["method"] == "mc" and row["t"] > 0:
                target = series_value(params, row["t"])
                assert abs(row["value"] - target) < 4.0 * row["stderr"]


class TestMonteCarloGrid:
    ARGV = ("compare", *TABLE_FLAGS, "--t-max", "100", "--step", "50", "--h", "0.05",
            "--with-mc", "--paths", "20000", "--seed", "11")

    def test_compare_simulates_the_grid_in_one_call(self, capsys, monkeypatch):
        curves = []

        def traced(*args, _fn=cli.simulate_wk, **kwargs):
            curves.append(_fn(*args, **kwargs))
            return curves[-1]

        monkeypatch.setattr(cli, "simulate_wk", traced)
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert len(curves) == 1
        assert curves[0].n_paths == 2 * 20000  # t = 50 and 100; t = 0 draws nothing
        rows = [row for row in parse_csv(out) if row["method"] == "mc"]
        assert [row["t"] for row in rows] == ["0", "50", "100"]

    def test_stdout_does_not_depend_on_the_worker_count(self, capsys, monkeypatch):
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
            code, out, _ = run_cli(capsys, *self.ARGV)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_simulate_horizon_matches_its_compare_row(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGV, "--out", "json")
        row = [row for row in json.loads(out)["rows"] if row["method"] == "mc" and row["t"] == 50.0][0]
        code, out, _ = run_cli(
            capsys, "simulate", "--horizon", "50", *TABLE_FLAGS, "--paths", "20000", "--seed", "11", "--out", "json"
        )
        assert code == 0
        estimate = json.loads(out)["estimate"]
        assert (estimate["mean"], estimate["stderr"]) == (row["value"], row["stderr"])


class TestOptimize:
    def test_flagship_scan(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02")
        assert code == 0
        assert "k* = 10" in err
        rows = parse_csv(out)
        optimal = [row for row in rows if row["is_optimal"] == "1"]
        assert len(optimal) == 1
        assert optimal[0]["k"] == "10"
        assert float(optimal[0]["v"]) == pytest.approx(41.09693754, rel=1e-9)

    def test_no_fixed_cost(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--a", "0", "--b", "1", "--mu", "1", "--r", "0.02", "--out", "json")
        assert code == 0
        report = json.loads(out)
        assert report["k_star"] == 1
        assert report["v_star"] == pytest.approx(50.0, rel=1e-12)

    def test_scan_is_the_library_scan(self, capsys):
        from restock.valuation import optimal_stock_scan

        code, out, _ = run_cli(
            capsys, "optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02", "--k-max", "7", "--out", "json"
        )
        assert code == 0
        report = json.loads(out)
        k_star, v_star, scan = optimal_stock_scan(1.0, 1.0, 1.0, 0.02, k_max=7)
        assert (report["k_star"], report["v_star"]) == (k_star, v_star) == (7, scan[-1][1])
        assert [(row["k"], row["v"]) for row in report["scan"]] == scan

    def test_cap_before_the_envelope_proof_is_noted(self, capsys):
        # the envelope proves k* = 10 at k = 21; a cap of 7 ends the scan first
        code, out, err = run_cli(capsys, "optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02", "--k-max", "7")
        assert code == 0
        assert "k* = 7" in err
        assert "note: the scan stopped at k_max = 7" in err
        assert [row["k"] for row in parse_csv(out)][-1] == "7"
        code, out, err = run_cli(capsys, "optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02")
        assert code == 0
        assert "note" not in err
        assert [row["k"] for row in parse_csv(out)] == [str(k) for k in range(2, 21)]

    def test_infeasible_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize", "--a", "10", "--b", "0.5", "--mu", "1", "--r", "0.02", "--k-max", "5"
        )
        assert code == 2
        assert "positive payoff" in err

    def test_overflowing_cost_ratio_is_infeasible(self, capsys):
        # a / b overflows to inf: no stock size is feasible, and floor(inf) must not escape
        code, out, err = run_cli(capsys, "optimize", "--a", "1e299", "--b", "1e-300", "--mu", "1", "--r", "0.02")
        assert (code, out) == (2, "")
        assert "no stock size up to k_max=1000000 has positive payoff b*k - a (a=1e+299, b=1e-300)" in err

    @pytest.mark.parametrize("a, b, mu, r, first", [("1000", "1", "0.1", "0.5", 1001),
                                                    ("1000", "0.0248", "0.011", "0.0359", 40323)])
    def test_underflowed_optimum_is_named(self, capsys, a, b, mu, r, first):
        code, out, err = run_cli(capsys, "optimize", "--a", a, "--b", b, "--mu", mu, "--r", r)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: optimal value underflows to 0: alpha^-k is below the double range "
                              f"from the first feasible k = {first} on")


class TestPaperTable:
    def test_csv_columns_and_diagnosis(self, capsys):
        code, out, err = run_cli(capsys, "paper-table")
        assert code == 0
        rows = parse_csv(out)
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], {})[row["t"]] = float(row["value"])
        assert set(by_method) == {"as_printed", "asymptotic", "series"}
        # every method carries the six finite horizons plus the inf row
        for values in by_method.values():
            assert set(values) == {"10", "20", "50", "100", "200", "500", "inf"}
        assert by_method["as_printed"]["10"] == pytest.approx(0.339, abs=2e-3)
        assert by_method["as_printed"]["200"] == pytest.approx(34.885, abs=2e-3)
        assert by_method["as_printed"]["inf"] == 41.097
        assert by_method["series"]["10"] == pytest.approx(4.023, abs=5e-3)
        assert by_method["series"]["inf"] == pytest.approx(41.09693754, rel=1e-9)
        assert "1/51" in err

    def test_json_has_erratum_note(self, capsys):
        code, out, _ = run_cli(capsys, "paper-table", "--out", "json")
        assert code == 0
        report = json.loads(out)
        assert "erratum_note" in report
        assert "rho" in report["erratum_note"]
        assert len(report["rows"]) == 21


class TestSimulate:
    def test_perpetual_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--perpetual", "--k", "1", "--mu", "1", "--r", "1", "--theta", "1",
            "--paths", "30000", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        est = report["estimate"]
        assert est["seed"] == 7
        assert est["n_paths"] == 30000
        assert "tail_tol" not in report
        assert "truncation_bias_bound" not in est
        assert abs(est["mean"] - 1.0) < 4.0 * est["stderr"]

    def test_horizon_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--horizon", "1e-9", *TABLE_FLAGS, "--paths", "5000", "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["estimate"]["mean"] == 0.0
        assert "truncation_bias_bound" not in report["estimate"]

    def test_zero_horizon(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--horizon", "0", *TABLE_FLAGS, "--paths", "5000", "--seed", "1", "--out", "csv"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["mean"], row["stderr"], row["n_paths"]) == ("0", "0", "0")

    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate", "--perpetual", *TABLE_FLAGS, "--paths", "20000", "--seed", "123"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_infinite_horizon_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--horizon", "inf", *TABLE_FLAGS, "--paths", "5000", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert "--perpetual" in err

    @pytest.mark.parametrize("r", ["1e-8", "1e-17"], ids=["slow", "q-rounds-to-1"])
    def test_perpetuity_past_the_round_cap_exits_2_at_once(self, capsys, r):
        # about 4.5e8 rounds a path (some 5 hours of simulation) and 4.5e17,
        # where q rounds to 1 and no path ever ended; both refused unsimulated
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", "--perpetual", "--k", "1", "--mu", "1", "--r", r, "--theta", "1", "--paths", "100"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "past the cap of 100000; `restock value`" in err

    def test_mode_required(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", *TABLE_FLAGS, "--paths", "100", "--seed", "1")
        assert code == 2

    def test_csv_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--horizon", "10", *TABLE_FLAGS, "--paths", "5000", "--seed", "2", "--out", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["mode"] == "horizon"
        assert list(rows[0]) == ["mode", "horizon", "mean", "stderr", "n_paths", "seed"]


class TestReportLayout:
    """Key order of every JSON report and the CSV columns taken from dataclasses."""

    GRID = ["--t-max", "10", "--step", "5", "--out", "json"]

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["value", *TABLE_FLAGS], ["command", "params", "effective", "v", "metadata"]),
            (
                ["curve", "--method", "series", *TABLE_FLAGS, *GRID],
                ["command", "params", "methods", "grid", "tolerances", "seed", "rows", "metadata"],
            ),
            (
                ["compare", *TABLE_FLAGS, *GRID],
                ["command", "params", "methods", "grid", "tolerances", "seed",
                 "max_pairwise_discrepancy", "agreement_passed", "rows", "metadata"],
            ),
            (
                ["optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02", "--out", "json"],
                ["command", "inputs", "k_star", "v_star", "scan", "metadata"],
            ),
            (["paper-table", "--out", "json"], ["command", "params", "erratum_note", "rows", "metadata"]),
            (
                ["simulate", "--perpetual", *TABLE_FLAGS, "--paths", "1000"],
                ["command", "params", "mode", "horizon", "estimate", "metadata"],
            ),
        ],
        ids=["value", "curve", "compare", "optimize", "paper-table", "simulate"],
    )
    def test_json_key_order(self, capsys, argv, keys):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        assert list(report) == keys
        assert list(report["metadata"]) == ["version"]
        for row in report.get("rows", []):
            assert list(row) == ["t", "method", "value", "stderr"]

    def test_nested_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "value", *TABLE_FLAGS)
        report = json.loads(out)
        assert list(report["params"]) == ["k", "mu", "r", "growth", "cost"]
        assert list(report["effective"]) == ["theta", "r_eff", "alpha", "phi_k", "rho", "mu0"]
        _, out, _ = run_cli(capsys, "optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02", "--out", "json")
        assert list(json.loads(out)["inputs"]) == ["a", "b", "mu", "r", "growth", "k_max"]
        _, out, _ = run_cli(capsys, "simulate", "--perpetual", *TABLE_FLAGS, "--paths", "1000")
        assert list(json.loads(out)["estimate"]) == ["mean", "stderr", "n_paths", "seed"]

    def test_value_csv_columns(self, capsys):
        _, out, _ = run_cli(capsys, "value", *TABLE_FLAGS, "--out", "csv")
        assert out.splitlines()[0] == "k,mu,r,growth,theta,r_eff,alpha,phi_k,rho,mu0,v"


class TestParserPin:
    """Every dest and default of each subcommand, from its minimal argv."""

    MODEL = ["--k", "1", "--mu", "1", "--r", "1"]
    MODEL_DESTS = {"k": 1, "mu": 1.0, "r": 1.0, "theta": None, "a": None, "b": None, "growth": 0.0}
    GRID_DESTS = {"t_max": 10.0, "step": None, "h": 0.01}
    MC_DESTS = {"paths": 100_000, "seed": 0}

    @pytest.mark.parametrize(
        "argv, func, expected",
        [
            (["value", *MODEL], "cmd_value", {**MODEL_DESTS, "out": "json"}),
            (
                ["curve", "--method", "series", *MODEL, "--t-max", "10"],
                "cmd_curve",
                {**MODEL_DESTS, "out": "csv", "method": "series", **GRID_DESTS, "with_mc": False, **MC_DESTS},
            ),
            (
                ["compare", *MODEL, "--t-max", "10"],
                "cmd_compare",
                {**MODEL_DESTS, "out": "csv", **GRID_DESTS, "tol": 1e-4, "with_mc": False, **MC_DESTS},
            ),
            (
                ["optimize", "--a", "1", "--b", "2", "--mu", "3", "--r", "4"],
                "cmd_optimize",
                {"a": 1.0, "b": 2.0, "mu": 3.0, "r": 4.0, "growth": 0.0, "k_max": None, "out": "csv"},
            ),
            (["paper-table"], "cmd_paper_table", {"out": "csv"}),
            (
                ["simulate", "--perpetual", *MODEL],
                "cmd_simulate",
                {**MODEL_DESTS, "out": "json", "horizon": None, "perpetual": True, **MC_DESTS},
            ),
        ],
        ids=["value", "curve", "compare", "optimize", "paper-table", "simulate"],
    )
    def test_dests_and_defaults(self, argv, func, expected):
        parsed = vars(build_parser().parse_args(argv))
        assert parsed.pop("func") is getattr(cli, func)
        assert parsed == {"command": argv[0], **expected}


class TestOutputHygiene:
    def test_lf_only_and_trailing_newline(self, capsys):
        _, out, _ = run_cli(capsys, "curve", "--method", "series", *TABLE_FLAGS, "--t-max", "20", "--step", "10")
        assert "\r" not in out
        assert out.endswith("\n")

    def test_header_is_bit_exact(self, capsys):
        _, out, _ = run_cli(capsys, "curve", "--method", "series", *TABLE_FLAGS, "--t-max", "20", "--step", "10")
        assert out.splitlines()[0] == "t,method,value,stderr"

    def test_reruns_byte_identical(self, capsys):
        argv = ["compare", *TABLE_FLAGS, "--t-max", "30", "--step", "10", "--h", "0.1",
                "--with-mc", "--paths", "20000", "--seed", "5"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_diagnostics_stay_off_stdout(self, capsys):
        _, out, err = run_cli(capsys, "optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02")
        assert "k*" in err
        assert "k*" not in out

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert __version__ in out


_PIN_GRID = ["--t-max", "50", "--step", "10"]
_PIN_MC = ["--paths", "2000", "--seed", "3"]
_PIN_GROWTH = ["--growth", "0.01"]
# SHA-256 of stdout in CSV and in JSON for each subcommand; the JSON carries
# the package version, so a version change moves every JSON digest.
_PINNED_STDOUT = {
    "value": (
        ["value", *TABLE_FLAGS],
        "d612288a2ee41ce589bd2c93b040645e3bdac581ed70eb783b5e3702431219b3",
        "e5c4d46d560fa3738462ef065f90b44eae19cba5e880e110f1907100dd3c8b1a",
    ),
    "curve-series": (
        ["curve", "--method", "series", *TABLE_FLAGS, *_PIN_GRID],
        "acbbbb1b713f15ce5738001a3032de40ba31fdc189138d184c7e2e1658997d8e",
        "567f8255539624634db0c5deae8f1ed581357d806da28bf9362f2307de836416",
    ),
    "curve-volterra": (
        ["curve", "--method", "volterra", *TABLE_FLAGS, *_PIN_GRID, "--h", "0.05"],
        "70da1568de381cd50fe90d00d0f5ee0fd7ad982253e98d930f8dd65d0fca49ca",
        "b8ecb5895003bac9f9bbf8d7acd4d8525187c51de4c9d6c594510e8d2bb22d86",
    ),
    "curve-laplace": (
        ["curve", "--method", "laplace", *TABLE_FLAGS, *_PIN_GRID],
        "97b40e5b2f42802b8bea00ed716c39ea28f4f70062afbea7f9b4fed7a111b77e",
        "0231fc5959dc9ff1245cfeb1207157cb4e24efffd71f619d4926900845eb11af",
    ),
    "curve-asymptotic": (
        ["curve", "--method", "asymptotic", *TABLE_FLAGS, *_PIN_GRID],
        "99df460e6ff3c8e6ebd6e0166a7cd04a62c852b338cc99d0a6ab33c24ac7f672",
        "f379f4ea443eaa4e6bb0985046ecbfc4a5cf30281eed4640921574f45ded792a",
    ),
    "curve-exact_k1": (
        ["curve", "--method", "exact_k1", "--k", "1", "--mu", "1", "--r", "0.5", "--theta", "1", *_PIN_GRID],
        "632781f062864e0c5d876955c8e7f730ddc9c43b1141550fa9fff785e09502be",
        "ed82560a970bfb5e8e2f1c2f8ed82fafcca8fff9b8ed38c70178bc7fe515753c",
    ),
    "curve-mc": (
        ["curve", "--method", "mc", *TABLE_FLAGS, *_PIN_GRID, *_PIN_MC],
        "c7a93d760e3d384a45e9c66cf7997df8dc261c357a76e23246b29b2759d570aa",
        "a275848ac243d86d8d2cd73b6f0a9ad863ed910778e346bb3f1c586604cb6480",
    ),
    "curve-all": (
        ["curve", "--method", "all", *TABLE_FLAGS, *_PIN_GRID, "--h", "0.05", "--with-mc", *_PIN_MC],
        "69e823ced7077415724199fc9a10ad7e8aa749ce5105a6c2ccd013243b5c874e",
        "7121e6204a6c96016760e67c409c5294de484b23cb2aad1bb7b52c3e9751450e",
    ),
    "compare": (
        ["compare", *TABLE_FLAGS, *_PIN_GRID, "--h", "0.05", "--with-mc", *_PIN_MC],
        "726513484c33c75882debab4e33badd66775334fd0becd3c07a97cb6c86668fc",
        "86e869a0d2a198c32bd84c331f75750cc2895c71621288a4fc4c3f2313b6b337",
    ),
    "optimize": (
        ["optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02"],
        "a822155c373cd8668f8970f3a99644ed85237ab01c63ac7185a279960d3fba7d",
        "ef3f45c1c8d8549e0bc90d38fc86cec7981db649ecee09778e9970a0e57b87f9",
    ),
    "paper-table": (
        ["paper-table"],
        "4cc13b3f4f00798d8bfadc306a4c4526e112ef315ab03d1094b692f1863b6c6d",
        "eb5f5aab37a7c9afad7323fad0997da5e1b970b938f9b9a96578ec33ac7eadda",
    ),
    "simulate-horizon": (
        ["simulate", "--horizon", "10", *TABLE_FLAGS, *_PIN_MC],
        "28561d4c7b60370615a9f9fab50fe3bc8902425324c076876399dfc2c14c2498",
        "0d8f3fd6069b55410fd02e469f85ae05f48ec3bd7b9f05cc821070fbbe1383a8",
    ),
    "simulate-perpetual": (
        ["simulate", "--perpetual", *TABLE_FLAGS, *_PIN_MC],
        "2fbb0dd38000c9916621af8624e8145d1e832db8951b8ef4f051723559fb6848",
        "dad801106232addb78dc4dca4d28ed90d27697eb8eb4cd9d46fabd2563966460",
    ),
    # cost growth shifts every method to the rate r - growth
    "value-growth": (
        ["value", *TABLE_FLAGS, *_PIN_GROWTH],
        "70be0d80819876a063bf07799df4fd3397b879fb3c5d5740bf86e033a52cfb75",
        "71bd599b45d64a6666fb96fe0ff697fefe2eeaebd7a79da013b42d7f8a769c7d",
    ),
    "curve-all-growth": (
        ["curve", "--method", "all", *TABLE_FLAGS, *_PIN_GROWTH, *_PIN_GRID, "--h", "0.05", "--with-mc", *_PIN_MC],
        "17ebb15aa13673d4371836440e88076e40ba1bd90201c9d96a2194da63ea9008",
        "93696ca36473ef0032824b1d1f407c46b665365c1c22933f30b87a1d8a41e427",
    ),
    "simulate-perpetual-growth": (
        ["simulate", "--perpetual", *TABLE_FLAGS, *_PIN_GROWTH, *_PIN_MC],
        "3494513dfe9362000ecb49307185bcba83d1f4ee3600e8827ca5ee00bdaf4d37",
        "2645b66f6dddee6f92b10aaff49496719aa309273e2380ff069a2ddc0b07dd2e",
    ),
}


@pytest.mark.parametrize("out", ["csv", "json"])
@pytest.mark.parametrize("command", list(_PINNED_STDOUT))
def test_stdout_is_pinned(capsys, command, out):
    argv, csv_digest, json_digest = _PINNED_STDOUT[command]
    code, stdout, _ = run_cli(capsys, *argv, "--out", out)
    assert code == 0
    if out == "json":
        strict_json(stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == (csv_digest if out == "csv" else json_digest)


def strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no Infinity or NaN."""

    def refuse(name: str):
        raise ValueError(f"{name} is not JSON (RFC 8259)")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_floats_are_written_as_null(capsys):
    _, out, _ = run_cli(capsys, "paper-table", "--out", "json")
    assert [row["t"] for row in strict_json(out)["rows"]].count(None) == 3
    _, out, _ = run_cli(capsys, "value", "--k", "1", "--mu", "1e-300", "--r", "1e300", "--theta", "1")
    effective = strict_json(out)["effective"]
    assert (effective["alpha"], effective["mu0"]) == (None, None)


@pytest.mark.parametrize("command", [command for command, (argv, _, _) in _PINNED_STDOUT.items() if "--seed" in argv])
def test_pinned_mc_rows_lie_within_four_stderr(capsys, command):
    # the pinned digests must encode estimates that agree with the exact value
    argv = _PINNED_STDOUT[command][0]
    params = cli._build_params(build_parser().parse_args(argv))
    code, out, _ = run_cli(capsys, *argv, "--out", "json")
    assert code == 0
    report = json.loads(out)
    if command.startswith("simulate"):
        estimate = report["estimate"]
        exact = perpetual_value(params) if report["mode"] == "perpetual" else series_value(params, report["horizon"])
        checked = [(exact, estimate["mean"], estimate["stderr"])]
    else:
        checked = [(series_value(params, row["t"]), row["value"], row["stderr"])
                   for row in report["rows"] if row["method"] == "mc"]
    assert checked
    for exact, mean, stderr in checked:
        assert abs(mean - exact) <= 4.0 * stderr, (exact, mean, stderr)


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this checkout's sources."""
    src = str(Path(restock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


_GRID = ("--r", "0.02", "--theta", "1", "--t-max", "2", "--step", "1")


class TestStartup:
    def test_import_leaves_the_executor_unloaded(self):
        # concurrent.futures costs several ms of start-up; the perpetuity's
        # block threads use threading only.  The test oracles' mpmath,
        # hypothesis and pytest must stay out of the runtime too.
        roots = "{'concurrent', 'mpmath', 'hypothesis', 'pytest', '_pytest'}"
        code = f"import sys, restock.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {roots}))"
        assert _fresh_python(code).strip() == "[]"

    @pytest.mark.parametrize("code", ["import restock", "import restock.cli", "import restock.cli; restock.cli.build_parser()"])
    def test_start_up_leaves_numpy_unloaded(self, code):
        assert _fresh_python(f"import sys\n{code}\nprint('numpy' in sys.modules)") == "False\n"

    @pytest.mark.parametrize(
        "argv, numpy",
        [
            (["value", *TABLE_FLAGS], False),
            (["optimize", "--a", "1", "--b", "1", "--mu", "1", "--r", "0.02"], False),
            (["paper-table"], False),
            (["curve", "--method", "series", "--k", "3", "--mu", "1", *_GRID], False),
            (["curve", "--method", "asymptotic", "--k", "3", "--mu", "1", *_GRID], False),
            (["curve", "--method", "exact_k1", "--k", "1", "--mu", "1", *_GRID], False),
            # the array methods do load it: the check sees numpy when it is there
            (["curve", "--method", "volterra", "--k", "3", "--mu", "1", *_GRID], True),
        ],
        ids=["value", "optimize", "paper-table", "curve-series", "curve-asymptotic", "curve-exact_k1", "curve-volterra"],
    )
    def test_scalar_commands_leave_numpy_unloaded(self, argv, numpy):
        code = (
            "import contextlib, io, sys\n"
            "from restock.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        assert _fresh_python(code) == f"0 {numpy}\n"

    def test_package_names_load_lazily(self):
        code = (
            "import sys, restock\n"
            "listed = set(restock.__all__) <= set(dir(restock))\n"
            "cold = 'numpy' in sys.modules\n"
            "namespace = {}\n"
            "exec('from restock import *', namespace)\n"
            "print(listed, cold, set(restock.__all__) <= set(namespace))\n"
        )
        assert _fresh_python(code) == "True False True\n"
        with pytest.raises(AttributeError, match="has no attribute 'missing'"):
            restock.missing

    def test_array_methods_are_called_as_module_attributes(self, capsys, monkeypatch):
        # the benchmark's spans wrap these four on restock.cli; a wrapper put
        # there must see every call
        calls = []
        for name in ("invert", "simulate_wk", "simulate_vk", "solve_renewal"):
            def traced(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, traced)
        grid = ("--t-max", "2", "--step", "1", "--paths", "100")
        assert run_cli(capsys, "compare", "--with-mc", *TABLE_FLAGS, *grid)[0] == 0
        assert run_cli(capsys, "simulate", "--perpetual", *TABLE_FLAGS, "--paths", "100")[0] == 0
        assert sorted(set(calls)) == ["invert", "simulate_vk", "simulate_wk", "solve_renewal"]
