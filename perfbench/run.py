"""Benchmark of the restock CLI: four workloads, checked outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload curve-volterra --seed 1 --seconds 15 --trace 0

Every invocation goes through ``restock.cli.main(argv)``, the path a user's
``restock ...`` call takes, in one process as a closed loop with one client:
each invocation starts after the previous one returns.  Every output row is
checked against a 50-digit reference (``reference.py``).  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones from a separate traced pass (``spans.py``).  The last line
of stdout is the result object; the line before it is a report with the
sample counts, quartiles and machine.  See README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import os

# Single-threaded baseline: np.dot in the Volterra recursion would otherwise
# use OpenBLAS threads.  Set before numpy is first imported, and inherited by
# the set-up subprocesses.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 9
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import restock.cli\n"
    "restock.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)

_STORE = ("--r", "0.02", "--a", "1", "--b", "1")

# Invocation times are reported at a fixed reference speed: the speed at
# which the probe loop (probe_seconds) takes PROBE_REF_S, about its time on
# an idle core of the 2-vCPU Xeon the bounds were set on.
PROBE_REF_S = 0.030
_PROBE_ARRAY = np.linspace(0.0, 1.0, 200_000)


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # flags after ``restock``; seeded ones get --seed appended
    methods: tuple[str, ...]  # row methods the command prints, in order
    dominant: str  # per-layer busy metric that should cover the wall time
    seeded: bool = False


WORKLOADS = {
    # 50,000-step O(n^2) recursion: runs no series, inversion or MC code.
    "curve-volterra": Workload(
        ("curve", "--method", "volterra", "--k", "10", "--mu", "1", *_STORE,
         "--t-max", "500", "--step", "10", "--h", "0.01"),
        ("volterra",),
        "volterra.recursion_s",
    ),
    # High-demand store (mu*t up to 2000): ~2,700 series terms per point.
    "curve-series": Workload(
        ("curve", "--method", "series", "--k", "10", "--mu", "20", *_STORE,
         "--t-max", "100", "--step", "2"),
        ("series",),
        "distributions.convolution_cdf.busy_s",
    ),
    # The cross-check users gate on; --h 0.05 keeps Volterra at ~1.5%.
    "compare-mc": Workload(
        ("compare", "--k", "10", "--mu", "1", *_STORE, "--t-max", "500", "--step", "50",
         "--h", "0.05", "--with-mc", "--paths", "20000"),
        ("series", "volterra", "laplace", "mc"),
        "montecarlo.simulate_wk.busy_s",
        seeded=True,
    ),
    # Same MC primitive without the renewal clock, run until discount < 1e-12.
    "simulate-perpetual": Workload(
        ("simulate", "--perpetual", "--k", "10", "--mu", "1", *_STORE, "--paths", "50000"),
        ("mc",),
        "montecarlo.simulate_vk.busy_s",
        seeded=True,
    ),
}


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def workload_argv(workload: Workload, seed: int) -> list[str]:
    """The command line; the seed reaches only the MC workloads, as --seed."""
    return [*workload.argv, "--seed", str(seed)] if workload.seeded else list(workload.argv)


def expected_rows(workload: Workload) -> dict[tuple[float, str], float]:
    """Reference value of every row the workload prints; independent of the seed."""
    argv = workload.argv
    store = reference.Store(
        k=int(_flag(argv, "--k")),
        mu=float(_flag(argv, "--mu")),
        r=float(_flag(argv, "--r")),
        a=float(_flag(argv, "--a")),
        b=float(_flag(argv, "--b")),
    )
    if "--perpetual" in argv:
        return {(math.inf, "mc"): reference.perpetual_value(store)}
    t_max, step = float(_flag(argv, "--t-max")), float(_flag(argv, "--step"))
    times = [i * step for i in range(round(t_max / step) + 1)]
    values = {t: reference.horizon_value(store, t) for t in times}
    return {(t, method): values[t] for method in workload.methods for t in times}


def invoke(argv: list[str]) -> tuple[int, str]:
    """One ``restock`` call in process; returns the exit code and stdout."""
    from restock.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class Session:
    """Invocations of one workload, each checked, with failures counted.

    An invocation fails on a nonzero exit, an exception, output that does
    not parse, a row outside its method's accuracy, or stdout that differs
    from the first invocation's (every invocation has the same argv).
    """

    def __init__(self, argv: list[str], expected: dict[tuple[float, str], float]) -> None:
        self.argv = argv
        self.expected = expected
        self.h = float(_flag(tuple(argv), "--h")) if "--h" in argv else math.nan
        self.attempted = 0
        self.failed = 0
        self.first_stdout: str | None = None
        self.max_abs_err: dict[str, float] = {}
        self.max_abs_z = 0.0
        self.max_stderr = 0.0

    def call(self, context: contextlib.AbstractContextManager | None = None) -> float | None:
        """Time one invocation, then check it; returns seconds, or None if it raised."""
        try:
            with context or contextlib.nullcontext():
                start = time.perf_counter()
                code, stdout = invoke(self.argv)
                elapsed = time.perf_counter() - start
        except Exception:
            self.attempted += 1
            self.fail("invocation raised:\n" + traceback.format_exc())
            return None
        self.record(code, stdout)
        return elapsed

    def record(self, code: int, stdout: str) -> bool:
        """Check one invocation's exit code and stdout; True if it passed."""
        self.attempted += 1
        if code != 0:
            return self.fail(f"exit code {code}")
        if self.first_stdout is None:
            self.first_stdout = stdout
        elif stdout != self.first_stdout:
            return self.fail("stdout differs from the first invocation with the same argv")
        try:
            rows = reference.parse_rows(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return self.fail(f"unparsable output: {exc!r}")
        verdict = reference.check_rows(rows, self.expected, self.h)
        for method, err in verdict.max_abs_err.items():
            self.max_abs_err[method] = max(self.max_abs_err.get(method, 0.0), err)
        self.max_abs_z = max(self.max_abs_z, verdict.max_abs_z)
        self.max_stderr = max(self.max_stderr, verdict.max_stderr)
        if not verdict.ok:
            return self.fail("; ".join(verdict.bad_rows[:5]))
        return True

    def fail(self, why: str) -> bool:
        self.failed += 1
        if self.failed <= 3:
            print(f"failed invocation {self.attempted}: {why}", file=sys.stderr)
        return False


@contextlib.contextmanager
def traced_memory(peaks: list[int]):
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def setup_seconds(samples: int) -> list[float]:
    """Fresh-interpreter time to a ready parser: import restock.cli plus build_parser()."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    values = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        values.append(float(proc.stdout.split()[-1]))
    return values


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def probe_seconds() -> float:
    """Time of a fixed mix of interpreter and numpy work (~30 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(20):
        np.exp(_PROBE_ARRAY).sum()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to the speed at which the probe takes PROBE_REF_S.

    The machine's speed drifts with the load of other tenants by tens of
    percent over minutes; the probe timed just before and after a measured
    call tells the speed that call ran at.
    """
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict[str, float], dict]:
    setup = setup_seconds(SETUP_SAMPLES)
    session.call()  # warm-up: lazy imports and first-touch allocations
    peaks: list[int] = []
    session.call(traced_memory(peaks))  # untimed: tracemalloc slows the call
    raw_walls, walls = [], []
    before = probe_seconds()
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or not (walls or session.failed):
        elapsed = session.call()
        after = probe_seconds()
        if elapsed is not None:
            raw_walls.append(elapsed)
            walls.append(at_reference_speed(elapsed, before, after))
        before = after
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls) if walls else math.nan,
        "peak_mem_mb": peaks[0] / 1e6 if peaks else math.nan,
    }
    details = {
        "setup_s": summary(setup),
        "wall_s": summary(walls) if walls else None,
        "raw_wall_s": summary(raw_walls) if raw_walls else None,
    }
    return metrics, details


def measure_layers(session: Session, workload: Workload, seconds: float) -> tuple[dict[str, float], dict, spans.Tracer]:
    """Untraced and traced invocations alternate; per-layer figures are medians."""
    session.call()  # warm-up
    mc_peak_mb = 0.0
    if "mc" in workload.methods:
        mc_layers = tuple(layer for layer in spans.LAYERS if layer.name.startswith("montecarlo."))
        memory = spans.Tracer(mc_layers, memory=True)
        session.call(memory.invocation())  # untimed: tracemalloc slows the call
        mc_peak_mb = max(memory.peak_bytes.values(), default=0) / 1e6

    tracer = spans.Tracer()
    plain, traced, per_call = [], [], []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or not (per_call or session.failed):
        elapsed = session.call()
        if elapsed is not None:
            plain.append(elapsed)
        elapsed = session.call(tracer.invocation())
        if elapsed is not None:
            traced.append(elapsed)
            per_call.append(spans.layer_metrics(tracer))
    counts = {tuple(call.get(name) for name in spans.COUNTS) for call in per_call}
    if len(counts) > 1:
        session.attempted += 1
        session.fail(f"computed counts differ between invocations: {sorted(counts, key=str)}")

    # counts repeat exactly (checked above); times are medians over invocations
    metrics = {
        name: value if name in spans.COUNTS else statistics.median(call[name] for call in per_call)
        for name, value in (per_call[0].items() if per_call else ())
    }
    wall = statistics.median(plain) if plain else math.nan
    mc_busy = metrics.pop("montecarlo.busy_s", 0.0)
    metrics.update({
        "montecarlo.peak_mb": mc_peak_mb,
        "montecarlo.var_x_s": session.max_stderr**2 * mc_busy,
        "mc_stderr": session.max_stderr,
        "trace.overhead_frac": statistics.median(traced) / wall - 1 if traced else math.nan,
        "trace.dominant_frac": metrics.get(workload.dominant, math.nan) / wall,
    })
    for method in ("series", "volterra", "laplace"):
        metrics[f"accuracy.{method}.max_abs_err"] = session.max_abs_err.get(method, 0.0)
    metrics["accuracy.mc.max_abs_z"] = session.max_abs_z
    details = {"untraced_wall_s": summary(plain) if plain else None, "traced_wall_s": summary(traced) if traced else None}
    return metrics, details, tracer


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    """Spans of the last traced invocation, times in seconds from its start."""
    if not tracer.spans or tracer.spans[0] is None:
        return
    origin = tracer.spans[0][1]
    rows = [[name, start - origin, end - origin, parent] for name, start, end, parent in tracer.spans]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}) + "\n")


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def machine() -> dict:
    """Processor, caches and library versions the figures were measured with."""
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level and kind != "Instruction":
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "restock" / "cli.py").is_file():
        print(f"error: no restock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    started = time.perf_counter()
    expected = expected_rows(workload)
    reference_s = time.perf_counter() - started
    session = Session(workload_argv(workload, args.seed), expected)
    if args.trace:
        values, details, tracer = measure_layers(session, workload, args.seconds)
        write_spans(tracer, OUT_DIR / f"spans-{args.workload}.json")
        declared = spec["per_layer"]
    else:
        values, details = measure_end_to_end(session, args.seconds)
        declared = spec["end_to_end"]

    # a metric whose layer no longer exists, or that could not be measured, is absent
    measured = {name: value for name, value in values.items() if math.isfinite(value)}
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in measured}
    report = {
        "workload": args.workload,
        "argv": session.argv,
        "seed": args.seed,
        "trace": args.trace,
        "fail_frac": session.failed / max(1, session.attempted),
        "mc_stderr": session.max_stderr,
        "reference_s": reference_s,
        "absent": [m["name"] for m in declared if m["name"] not in measured],
        **details,
        "machine": machine(),
    }
    print("report " + json.dumps(report))
    correct = session.failed == 0 and session.attempted > 0
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
