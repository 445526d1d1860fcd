"""Spans around sunmetro's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function under every module binding
that refers to it (``casimir`` in ``sunmetro.cli``, ``sunmetro.probes`` and
``sunmetro.metrology``, for example), so calls between modules are seen as
well as calls from the CLI.  Spans are kept in memory; ``layer_metrics``
turns them into per-layer figures once the run is over.

A span's self time is its duration minus the part of it covered by its child
spans.  Each op is the root span of layer ``cli``; spans opened by the scan's
worker threads have that root as parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("algebra", "representation", "channel", "metrology", "probes", "cli")

TRACED = {
    "representation": ("symmetric_representation", "casimir", "fock_basis"),
    "algebra": ("gellmann_basis", "structure_constants"),
    "channel": ("generators_closed_form", "generators_quadrature"),
    "metrology": (
        "covariance", "build_report", "unpolarized_report", "saturation_check",
        "qfim", "intrinsic_bound", "weighted_bound",
    ),
    "probes": ("build_probe", "make_ghz", "optimize_probe"),
}
RAISING = ("metrology.intrinsic_bound", "metrology.weighted_bound", "probes.optimize_probe")
FUNCTIONS = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)
    error: bool = False
    info: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for ops run through :meth:`op`."""

    def __init__(self):
        self.roots: list[Span] = []
        self.outside: list[Span] = []  # spans opened by the oracle, not by an op
        self._local = threading.local()
        self._root: Span | None = None
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, names in TRACED.items():
            module = sys.modules[f"sunmetro.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in _sunmetro_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def op(self, run):
        """Run ``run()`` as one op under a ``cli`` root span; returns its result."""
        root = Span("cli.main", 0.0)
        self._root = root
        root.start = time.perf_counter()
        try:
            return run()
        finally:
            root.end = time.perf_counter()
            self._root = None
            self.roots.append(root)

    def _wrap(self, name, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span = Span(name, 0.0)
            if name == "representation.symmetric_representation":
                span.info["rep"] = (args[0].n, args[1] if len(args) > 1 else kwargs["particles"])
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = True
                if name == "probes.optimize_probe":
                    span.info["optimizer"] = (getattr(exc, "diagnostics", {}).get("singular_restarts", 0), args[1].restarts)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    (parent.children if parent is not None else tracer.outside).append(span)
            if name == "probes.optimize_probe":
                span.info["optimizer"] = (result.diagnostics["singular_restarts"], args[1].restarts)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _sunmetro_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "sunmetro" or key.startswith("sunmetro."))]


def _covered(span: Span) -> tuple[float, float]:
    """(union, sum) of the child intervals of ``span``, clipped to it."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in span.children)
    union = total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        total += end - start
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                union += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        union += cur_end - cur_start
    return union, total


def _walk(span: Span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _self_time(span: Span) -> float:
    return (span.end - span.start) - _covered(span)[0]


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-op figures per function and per layer, and any accounting errors.

    Times are milliseconds per op and counts are per op.  The layer self
    times of an op must add up to its wall time plus the overlap between its
    concurrent top-level spans (non-zero only for threaded scans).  Spans the
    oracle opened count towards their function but not towards a layer.
    """
    ops = max(len(tracer.roots), 1)
    calls = dict.fromkeys(FUNCTIONS, 0)
    errors = dict.fromkeys(RAISING, 0)
    self_ms = dict.fromkeys(FUNCTIONS, 0.0)
    layer_ms = dict.fromkeys(LAYERS, 0.0)
    builds = distinct = 0
    singular = restarts = 0
    sizes = set()
    problems = []
    for root in tracer.roots:
        wall = root.end - root.start
        union, total = _covered(root)
        op_self = 0.0
        reps = set()
        for span in _walk(root):
            own = _self_time(span)
            op_self += own
            layer_ms[span.name.split(".")[0]] += own * 1e3
            if span is root:
                continue
            calls[span.name] += 1
            self_ms[span.name] += own * 1e3
            if span.name in errors and span.error:
                errors[span.name] += 1
            if "rep" in span.info:
                builds += 1
                reps.add(span.info["rep"])
            if "optimizer" in span.info:
                singular += span.info["optimizer"][0]
                restarts += span.info["optimizer"][1]
        distinct += len(reps)
        sizes |= reps
        expected = wall + (total - union)
        if abs(op_self - expected) > 1e-9 + 1e-9 * expected:
            problems.append(f"layer self times sum to {op_self * 1e3:.6f} ms, op took {expected * 1e3:.6f} ms")
    for span in tracer.outside:
        for inner in _walk(span):
            calls[inner.name] += 1
            self_ms[inner.name] += _self_time(inner) * 1e3
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (self_ms[name] / ops, "ms/op")
    for name in RAISING:
        metrics[f"{name}.errors"] = (errors[name] / ops, "errors/op")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (layer_ms[layer] / ops, "ms/op")
    metrics["representation.builds_per_rep"] = (builds / distinct if distinct else 0.0, "ratio")
    metrics["representation.peak_alloc_mb"] = (peak_alloc_mb(sizes), "MB")
    metrics["probes.singular_restart_frac"] = (singular / restarts if restarts else 0.0, "fraction")
    return metrics, problems


def peak_alloc_mb(sizes) -> float:
    """Largest tracemalloc peak inside symmetric_representation and casimir.

    Measured in a pass of its own after the traced ops, once per (n, N) the
    ops built, so that tracemalloc's cost does not enter the span times.
    """
    from sunmetro.algebra import gellmann_basis
    from sunmetro.representation import casimir, symmetric_representation

    peak = 0
    tracemalloc.start()
    try:
        for n, particles in sorted(sizes):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rep = symmetric_representation(gellmann_basis(n), particles)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            casimir(rep)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del rep
    finally:
        tracemalloc.stop()
    return peak / 2**20
