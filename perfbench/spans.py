"""Spans and counters for the benchmark's traced run.

The traced job process rebinds the public functions named in SPANS and
COUNTED at every place a loaded ``cyclecovers`` module holds them, so a call
is seen whether it comes from the CLI or from another module (``covers``
imports ``cayley`` from ``graphs``, for instance). Spans stay in memory and
are written out when the job ends. ``self_times`` turns them into per-layer
self time in the benchmark process.

This module imports nothing from ``cyclecovers`` at import time, so the
benchmark process can use ``self_times`` without loading the program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Sequence

# Span name -> (module, attribute) pairs that are wrapped in a span of that
# name. "Class.method" names a method. metric_name() gives the per-layer
# metric of each span name.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "graphs.girth": (("graphs", "girth"),),
    "graphs.cycle_scan": (("graphs", "has_cycle_of_length"),),
    "graphs.has_4cycle": (("graphs", "has_4cycle"),),
    "graphs.cayley": (("graphs", "cayley"),),
    "graphs.base_build": (("graphs", "cartesian_power"), ("graphs", "hypercube")),
    "graphs.edge_list_text": (("graphs", "Graph.to_edge_list_text"),),
    "groups.order": (("groups", "ExtraspecialGroup.order"),),
    "covers.build_cover": (("covers", "build_cover"), ("covers", "heisenberg_cover")),
    "covers.verify_cover": (("covers", "verify_cover"),),
    "gains.gain_from_cocycle": (("gains", "gain_from_cocycle"),),
    "gains.cycle_sums": (("gains", "cycle_gain_sums"),),
    "spectra.eigen": (("spectra", "hermitian_eigenvalues"),),
    "spectra.twisted_adjacency": (("spectra", "twisted_adjacency"),),
    "spectra.adjacency_matrix": (("spectra", "adjacency_matrix"),),
    "spectra.degree_bound": (("spectra", "huang_degree_bound"),),
    "convolution.lift_check": (("convolution", "check_central_lift_identity"),),
    "convolution.operator_matrix": (("convolution", "operator_matrix"),),
    "reporting.stable_text": (("reporting", "stable_text"),),
    "cli": tuple(("cli", f) for f in (
        "cmd_build", "cmd_verify", "cmd_bound", "cmd_spectrum", "cmd_gain",
        "cmd_convolve_check", "_gain_graph_for_dims", "_write_cover")),
}

# Counter name -> methods whose calls are counted without a span; a span per
# group multiplication would cost more than the multiplication.
COUNTED: dict[str, tuple[tuple[str, str], ...]] = {
    "groups.mul_calls": (("groups", "ExtraspecialGroup.mul"), ("groups", "HeisenbergGroup.mul")),
}


def _solved_size(m) -> int:
    # The Jacobi path solves complex input through a real embedding of twice
    # the size, so the operation count is computed on that size.
    n = m.shape[0]
    return 2 * n if m.dtype.kind == "c" and m.imag.any() else n


def _count_cover(counts, result, args) -> None:
    counts["covers.vertices_built"] += result.total.n
    counts["covers.edges_built"] += result.total.m


def _count_cycles(counts, result, args) -> None:
    counts["gains.cycles_enumerated"] += len(result)


def _count_eigen(counts, result, args) -> None:
    counts["spectra.eigen_calls"] += 1
    counts["spectra.eigen_n3"] += _solved_size(args[0]) ** 3


def _count_text(counts, result, args) -> None:
    counts["reporting.bytes_out"] += len(result.encode())


def _count_written(counts, result, args) -> None:
    counts["cli.bytes_written"] += sum(path.stat().st_size for path in result)


# Wrapped function -> hook(counts, result, args), run after its span closes.
COUNT_HOOKS: dict[tuple[str, str], Callable] = {
    ("covers", "build_cover"): _count_cover,
    ("covers", "heisenberg_cover"): _count_cover,
    ("gains", "cycle_gain_sums"): _count_cycles,
    ("spectra", "hermitian_eigenvalues"): _count_eigen,
    ("reporting", "stable_text"): _count_text,
    ("cli", "_write_cover"): _count_written,
}

COUNT_NAMES = ("groups.mul_calls", "covers.vertices_built", "covers.edges_built",
               "gains.cycles_enumerated", "spectra.eigen_calls", "spectra.eigen_n3",
               "reporting.bytes_out", "cli.bytes_written")


class Tracer:
    """Records spans as [name, start, end, parent index] in one job process."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind every traced function in the loaded cyclecovers modules."""
        for name, targets in SPANS.items():
            for target in targets:
                hook = COUNT_HOOKS.get(target)
                _rebind(target, lambda fn, name=name, hook=hook: self.wrap(name, fn, hook))
        for name, targets in COUNTED.items():
            for target in targets:
                _rebind(target, lambda fn, name=name: self.count(name, fn))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"job": self.job, "spans": self.spans, "counts": dict(self.counts)}, f)


def _rebind(target: tuple[str, str], make: Callable[[Callable], Callable]) -> None:
    module_name, attr = target
    module = sys.modules[f"cyclecovers.{module_name}"]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(getattr(cls, method)))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name != "cyclecovers" and not name.startswith("cyclecovers."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def metric_name(span: str) -> str:
    """Per-layer metric of a span name; the CLI's spans give its self time."""
    return "cli.self_s" if span == "cli" else f"{span}_s"


def self_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Self time per span name: each span's duration minus its direct
    children's durations. Spans are [name, start, end, parent index] of one
    job, so children never overlap each other."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def top_level_time(spans: Iterable[Sequence]) -> float:
    """Time covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def layer_metrics(traces: Sequence[dict], job_seconds: Sequence[float]) -> dict[str, float]:
    """Per-layer metrics of one pass: summed self times, counts, and the job
    time that no span covers. traces[i] is the dumped trace of the job that
    took job_seconds[i] from import to exit."""
    out = {metric_name(name): 0.0 for name in SPANS}
    out.update({name: 0 for name in COUNT_NAMES})
    unattributed = 0.0
    for trace, seconds in zip(traces, job_seconds):
        for name, value in self_times(trace["spans"]).items():
            out[metric_name(name)] += value
        for name, value in trace["counts"].items():
            out[name] += value
        unattributed += seconds - top_level_time(trace["spans"])
    out["trace.unattributed_s"] = unattributed
    return out
