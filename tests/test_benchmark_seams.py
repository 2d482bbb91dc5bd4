"""The names the benchmark harness wraps, and one traced run of each workload.

``perfbench/spans.py`` traces the library by replacing module attributes
(mostly on ``restock.cli``), and ``perfbench/run.py`` times a fresh
``build_parser()`` call.  A change that moves one of those names away
leaves the benchmark reading 0 or reporting the metric absent, which no
other test sees.
"""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve_and_the_parser_builds(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up there
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer in spans.LAYERS:
        assert hasattr(importlib.import_module(layer.module), layer.attr), f"{layer.module}.{layer.attr}"
    importlib.import_module("restock.cli").build_parser()  # run.py's set-up timing calls it bare


WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(tmp_path, workload):
    # a copy, so the harness's span file and output directory stay out of the tree
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert result["correct"] is True
    label, report = report_line.split(" ", 1)
    assert label == "report"
    assert json.loads(report)["absent"] == []
    if workload == "compare-mc":
        # 10 nonzero times x 20,000 paths, counted from MCCurve.n_paths
        assert result["metrics"]["montecarlo.paths"]["value"] == 200_000
