"""Spans around the public functions of each splinefit module, installed from outside.

Every wrapped function is replaced, in every splinefit module that holds a
reference to it (so ``fitting`` and ``cli_io`` see the wrapped version of
the names they import), by a wrapper that records one span: its name, start
and end, the parent span and the operation id. Spans stay in memory; the
run writes them out when it ends. A layer's self time is the time of its
spans minus the time of their child spans, so over one operation the self
times of all spans add up to the root span.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# Span name -> (module, attribute path) of the wrapped callable. Methods are
# patched on their class.
TARGETS = {
    "cli_io.main": ("splinefit.cli_io", "main"),
    "cli_io.read_point_cloud": ("splinefit.cli_io", "read_point_cloud"),
    "cli_io.read_model": ("splinefit.cli_io", "read_model"),
    "fitting.rwls_fit": ("splinefit.fitting", "rwls_fit"),
    "fitting.adaptive_rwls_fit": ("splinefit.fitting", "adaptive_rwls_fit"),
    "spline_core.collocation_matrix": ("splinefit.spline_core", "collocation_matrix"),
    "spline_core.evaluate": ("splinefit.spline_core", "SplineFunction.evaluate"),
    "spline_core.evaluate_derivative": (
        "splinefit.spline_core", "SplineFunction.evaluate_derivative"),
    "spline_core.evaluate_many": ("splinefit.spline_core", "SplineFunction.evaluate_many"),
    "hierarchical.collocation_hierarchical": (
        "splinefit.hierarchical", "collocation_hierarchical"),
    "hierarchical.mark_cells": ("splinefit.hierarchical", "mark_cells"),
    "hierarchical.refine": ("splinefit.hierarchical", "HierarchicalSpace.refine"),
    "wls.assemble_thin_plate": ("splinefit.wls", "assemble_thin_plate"),
    "wls.solve_penalized_wls": ("splinefit.wls", "solve_penalized_wls"),
    "wls.solve_wls": ("splinefit.wls", "solve_wls"),
    "interp_decomposition.decompose": ("splinefit.interp_decomposition", "decompose"),
    "interp_decomposition.reconstruct": (
        "splinefit.interp_decomposition", "Decomposition.reconstruct"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    result: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on demand and collects the spans of each operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            return span.result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target wherever a splinefit module refers to it."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "splinefit" or n.startswith("splinefit."))]
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            holders = [owner] if parents else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def op_spans(self, op: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op]

    def drop_results(self) -> None:
        """Release the return values kept for counting, once they are counted."""
        for span in self.spans:
            span.result = None


def self_times(indexed_spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Per span name, total duration minus the duration of the direct children."""
    child_time: dict[int, float] = {}
    for _, span in indexed_spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    out: dict[str, float] = {}
    for i, span in indexed_spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration - child_time.get(i, 0.0)
    return out
