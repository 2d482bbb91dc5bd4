"""Spans around the library's public functions, recorded from outside.

Each layer boundary is wrapped by replacing the module attribute where its
caller looks the function up, so the library itself is unchanged.  A span
is (name, start, end, parent index); spans stay in memory and are reduced
to per-layer figures after each invocation.  A layer's self time is its
span minus the part covered by its child spans.  Counts are taken at the
same boundaries from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

ROOT = "cli.main"

# Inversion evaluates the contour at node_count and at node_count + 16 nodes
# (restock.laplace module docstring); the CLI passes the default config.
_TALBOT_REFINE = 16


def _grid_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    n = (kwargs["grid"] if "grid" in kwargs else args[1]).n_steps
    # step i is one dot product of length i - 1: a multiply and an add each
    return {"volterra.steps": n, "volterra.recursion_flops": n * (n - 1)}


def _node_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    t = kwargs["t"] if "t" in kwargs else args[1]
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    node_count = 32 if cfg is None else cfg.node_count
    return {"laplace.nodes": 0 if t == 0 else 2 * node_count + _TALBOT_REFINE}


def _path_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"montecarlo.paths": result.n_paths}


@dataclass(frozen=True)
class Layer:
    module: str  # where the caller looks the function up
    attr: str
    name: str  # span and metric name
    counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None


LAYERS = (
    Layer("restock.cli", "series_value", "valuation.series_value"),
    Layer("restock.cli", "solve_renewal", "volterra.solve_renewal", _grid_counts),
    Layer("restock.cli", "invert", "laplace.invert", _node_counts),
    Layer("restock.cli", "simulate_wk", "montecarlo.simulate_wk", _path_counts),
    Layer("restock.cli", "simulate_vk", "montecarlo.simulate_vk", _path_counts),
    Layer("restock.valuation", "convolution_cdf", "distributions.convolution_cdf"),
    Layer("restock.volterra", "erlang_cdf_grid", "volterra.erlang_cdf_grid"),
)

# Exact counts: identical in every invocation of a workload.
COUNTS = (
    "valuation.series_value.calls",
    "distributions.convolution_cdf.calls",
    "volterra.steps",
    "volterra.recursion_flops",
    "laplace.invert.calls",
    "laplace.nodes",
    "montecarlo.paths",
)


class Tracer:
    """Span wrappers on the layers that exist, installed per invocation.

    A layer whose function is missing (a later change deleted it) is left
    out, and its metrics are reported as absent.  With ``memory`` set,
    tracemalloc runs during the invocation and each wrapped call records its
    peak above the memory in use at entry; the layers traced that way must
    not nest, because each call resets the peak.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS, memory: bool = False) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self.peak_bytes: dict[str, int] = {}
        self.present = [layer for layer in layers if hasattr(importlib.import_module(layer.module), layer.attr)]
        self._memory = memory
        self._stack = [-1]

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, counts, peaks = self.spans, self._stack, self.counts, self.peak_bytes
        name, count_fn, memory = layer.name, layer.counts, self._memory
        # bound once: the wrapper runs ~137,700 times per curve-series invocation
        clock, record, push, pop = time.perf_counter, spans.append, stack.append, stack.pop

        def traced(*args, **kwargs):
            index = len(spans)
            record(None)
            parent = stack[-1]
            push(index)
            if memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                spans[index] = (name, start, end, parent)
                if memory:
                    peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - base)
            if count_fn is not None:
                for key, value in count_fn(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def invocation(self):
        """Wrappers installed and a root span open for one invocation.

        Clears the spans of the previous invocation; restores the original
        functions on exit.
        """
        self.spans[:] = [None]
        self.counts.clear()
        self._stack[:] = [-1, 0]
        saved = []
        for layer in self.present:
            module = importlib.import_module(layer.module)
            saved.append((module, layer.attr, getattr(module, layer.attr)))
            setattr(module, layer.attr, self._wrap(layer, saved[-1][2]))
        if self._memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            if self._memory:
                tracemalloc.stop()
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._stack[:] = [-1]
            self.spans[0] = (ROOT, start, end, -1)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive) seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, parent), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - children
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the tracer's last invocation, before unit assignment."""
    times = tracer.layer_times()
    present = {layer.name for layer in tracer.present}
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(name: str) -> dict[str, float]:
        return times.get(name, zero)

    out: dict[str, float] = {"cli.self_s": get(ROOT)["self_s"]}
    if "valuation.series_value" in present:
        series = get("valuation.series_value")
        out["valuation.series_value.calls"] = series["calls"]
        out["valuation.series_value.busy_s"] = series["busy_s"]
    if "distributions.convolution_cdf" in present:
        cdf = get("distributions.convolution_cdf")
        out["distributions.convolution_cdf.calls"] = cdf["calls"]
        out["distributions.convolution_cdf.busy_s"] = cdf["busy_s"]
        out["distributions.us_per_cdf"] = _ratio(cdf["busy_s"] * 1e6, cdf["calls"])
    if "volterra.solve_renewal" in present:
        solve = get("volterra.solve_renewal")
        flops = tracer.counts.get("volterra.recursion_flops", 0)
        out["volterra.solve_renewal.busy_s"] = solve["busy_s"]
        out["volterra.recursion_s"] = solve["self_s"]
        out["volterra.steps"] = tracer.counts.get("volterra.steps", 0)
        out["volterra.recursion_flops"] = flops
        out["volterra.recursion_gflops"] = _ratio(flops / 1e9, solve["self_s"])
    if "volterra.erlang_cdf_grid" in present:
        out["volterra.erlang_cdf_grid.busy_s"] = get("volterra.erlang_cdf_grid")["busy_s"]
    if "laplace.invert" in present:
        inv = get("laplace.invert")
        nodes = tracer.counts.get("laplace.nodes", 0)
        out["laplace.invert.calls"] = inv["calls"]
        out["laplace.invert.busy_s"] = inv["busy_s"]
        out["laplace.nodes"] = nodes
        out["laplace.us_per_node"] = _ratio(inv["busy_s"] * 1e6, nodes)
    mc_busy = 0.0
    for fn in ("simulate_wk", "simulate_vk"):
        if f"montecarlo.{fn}" in present:
            busy = get(f"montecarlo.{fn}")["busy_s"]
            out[f"montecarlo.{fn}.busy_s"] = busy
            mc_busy += busy
    if any(name.startswith("montecarlo.") for name in present):
        paths = tracer.counts.get("montecarlo.paths", 0)
        out["montecarlo.paths"] = paths
        out["montecarlo.ns_per_path"] = _ratio(mc_busy * 1e9, paths)
        out["montecarlo.busy_s"] = mc_busy
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0
