"""Tests of the benchmark itself: reference, checks, exact counts, byte checks.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

MC_WORKLOADS = [name for name, w in run.WORKLOADS.items() if w.seeded]


def poisson_tail_value(store: reference.Store, t: float) -> float:
    """w(t) = theta * sum_n q^n P(Poisson(mu t) >= n k), summed in mpmath.

    A second route to the reference; mpmath's incomplete gamma does not
    underflow at large mu*t the way exp(-mu t) does in double precision.
    """
    with mpmath.workdps(reference.DIGITS):
        q = (mpmath.mpf(store.r) / store.mu + 1) ** (-store.k)
        lam = mpmath.mpf(store.mu) * t
        total, n = mpmath.mpf(0), 1
        while q**n > mpmath.mpf(10) ** (-reference.DIGITS - 5):
            total += q**n * mpmath.gammainc(n * store.k, 0, lam, regularized=True)
            n += 1
        return float(store.theta * total)


@pytest.mark.parametrize(
    "store, t",
    [
        (reference.Store(k=10, mu=1.0, r=0.02, a=1.0, b=1.0), 10.0),
        (reference.Store(k=10, mu=1.0, r=0.02, a=1.0, b=1.0), 500.0),
        (reference.Store(k=10, mu=20.0, r=0.02, a=1.0, b=1.0), 2.0),
        (reference.Store(k=10, mu=20.0, r=0.02, a=1.0, b=1.0), 100.0),
    ],
)
def test_residue_reference_matches_poisson_tail_series(store, t):
    assert reference.horizon_value(store, t) == pytest.approx(poisson_tail_value(store, t), rel=1e-14)


def test_seed_reaches_only_the_mc_workloads():
    for name, workload in run.WORKLOADS.items():
        argv = run.workload_argv(workload, 12345)
        assert ("--seed" in argv) == (name in MC_WORKLOADS)
        assert argv[-2:] == ["--seed", "12345"] or name not in MC_WORKLOADS


def _traced_counts(argv: list[str]) -> dict[str, float]:
    tracer = spans.Tracer()
    with tracer.invocation():
        code, _ = run.invoke(argv)
    assert code == 0
    metrics = spans.layer_metrics(tracer)
    return {name: metrics[name] for name in spans.COUNTS if name in metrics}


EXPECTED_COUNTS = {
    "curve-volterra": {"volterra.steps": 50_000, "volterra.recursion_flops": 50_000 * 49_999},
    "curve-series": {"valuation.series_value.calls": 51, "distributions.convolution_cdf.calls": 137_700},
    "compare-mc": {"laplace.invert.calls": 11, "laplace.nodes": 10 * 80, "montecarlo.paths": 10 * 20_000},
    "simulate-perpetual": {"montecarlo.paths": 50_000},
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_computed_counts_repeat_exactly(name):
    argv = run.workload_argv(run.WORKLOADS[name], 7)
    first, second = _traced_counts(argv), _traced_counts(argv)
    assert first == second
    for key, value in EXPECTED_COUNTS[name].items():
        assert first[key] == value


def _cli_stdout(argv: list[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "restock.cli", *argv], env=env, capture_output=True, timeout=120, check=True
    )
    return proc.stdout


@pytest.mark.parametrize("name", MC_WORKLOADS)
def test_fixed_seed_gives_byte_identical_stdout(name):
    workload = run.WORKLOADS[name]
    first = _cli_stdout(run.workload_argv(workload, 3))
    assert _cli_stdout(run.workload_argv(workload, 3)) == first
    assert _cli_stdout(run.workload_argv(workload, 4)) != first


@pytest.fixture(scope="module")
def compare_output():
    workload = run.WORKLOADS["compare-mc"]
    argv = run.workload_argv(workload, 1)
    code, stdout = run.invoke(argv)
    assert code == 0
    return argv, run.expected_rows(workload), stdout


def _perturb(stdout: str, expected: dict, method: str, shift) -> str:
    """Move the t=100 row of ``method`` away from the reference by ``shift(row)``."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        t, m, value, stderr = line.split(",")
        if m == method and float(t) == 100.0:
            row = reference.Row(float(t), m, float(value), float(stderr) if stderr else None)
            away = math.copysign(1.0, row.value - expected[(row.t, m)])
            lines[i] = f"{t},{m},{format(row.value + away * shift(row), '.10g')},{stderr}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {method} row at t=100")


def test_unperturbed_output_passes(compare_output):
    argv, expected, stdout = compare_output
    session = run.Session(argv, expected)
    assert session.record(0, stdout)
    assert (session.attempted, session.failed) == (1, 0)


@pytest.mark.parametrize("method", ["series", "volterra", "laplace"])
def test_row_perturbed_by_1e4_counts_as_failure(compare_output, method):
    argv, expected, stdout = compare_output
    session = run.Session(argv, expected)
    assert not session.record(0, _perturb(stdout, expected, method, lambda row: 1e-4))
    assert (session.attempted, session.failed) == (1, 1)


def test_mc_row_beyond_four_stderr_counts_as_failure(compare_output):
    argv, expected, stdout = compare_output
    session = run.Session(argv, expected)
    assert not session.record(0, _perturb(stdout, expected, "mc", lambda row: 4.5 * row.stderr))
    assert session.failed == 1


def test_changed_stdout_under_same_argv_counts_as_failure(compare_output):
    argv, expected, stdout = compare_output
    session = run.Session(argv, expected)
    session.record(0, stdout)
    session.record(0, stdout + "\n")
    assert (session.attempted, session.failed) == (2, 1)


def test_missing_layer_is_reported_absent(monkeypatch):
    import restock.volterra

    monkeypatch.delattr(restock.volterra, "erlang_cdf_grid")
    tracer = spans.Tracer()
    with tracer.invocation():
        pass
    metrics = spans.layer_metrics(tracer)
    assert "volterra.erlang_cdf_grid.busy_s" not in metrics
    assert "volterra.recursion_s" in metrics


def _run_benchmark(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *flags], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    proc = _run_benchmark(ROOT, "--workload", "curve-volterra", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "curve-volterra", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
