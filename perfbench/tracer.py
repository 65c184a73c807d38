"""Span tracer that wraps nsvlab's public functions from outside the package.

Every traced function is replaced, in each loaded module that holds it
under its name, by a wrapper that records a span (group, start, end,
parent).  The replacement has to happen where a name is looked up:
``sim`` imports ``full_report``, ``cli`` imports ``integrate`` and
``inequalities`` imports ``advect`` by name, so patching only the
defining module would miss those calls.

Per group the tracer keeps the time of its outermost spans (a function
that calls another of the same group is not counted twice), the number
of outermost calls, and the self time of every span: its duration minus
the time its direct child spans cover.  Spans stay in memory until
``collect`` folds them into per-group totals.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from dataclasses import dataclass

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn")

# group -> (module, attribute, index of the path argument or None)
TARGETS: dict[str, list[tuple[str, str, int | None]]] = {
    "fields.fft": [("numpy.fft", name, None) for name in FFT_ENTRY_POINTS]
    + [("scipy.fft", name, None) for name in FFT_ENTRY_POINTS],
    "fields.leray_project": [
        ("nsvlab.fields", "leray_project", None),
        ("nsvlab.fields", "project_arrays", None),
    ],
    "fields.random_band_limited": [("nsvlab.fields", "random_band_limited", None)],
    "norms.full_report": [("nsvlab.norms", "full_report", None)],
    "norms.norm": [
        ("nsvlab.norms", "l2_norm", None),
        ("nsvlab.norms", "sobolev_norm", None),
        ("nsvlab.norms", "leilin_norm", None),
    ],
    "norms.band_constant": [("nsvlab.norms", "band_constant", None)],
    "products.embed_restrict": [
        ("nsvlab.products", "embed_coefficients", None),
        ("nsvlab.products", "restrict_coefficients", None),
    ],
    "products.advect": [("nsvlab.products", "advect", None)],
    "inequalities.x0_interpolation": [("nsvlab.inequalities", "check_x0_interpolation", None)],
    "inequalities.x0_via_xm1_h52": [("nsvlab.inequalities", "check_x0_via_xm1_h52", None)],
    "inequalities.x0_via_h12_x1": [("nsvlab.inequalities", "check_x0_via_h12_x1", None)],
    "inequalities.h32_trilinear": [("nsvlab.inequalities", "check_h32_trilinear", None)],
    "inequalities.split_x1": [("nsvlab.inequalities", "split_x1", None)],
    "sim.integrate": [("nsvlab.sim", "integrate", None)],
    "trajectory.write": [
        ("nsvlab.trajectory", "write_trajectory_csv", 1),
        ("nsvlab.trajectory", "write_trajectory_json", 1),
    ],
    "trajectory.read": [("nsvlab.trajectory", "read_trajectory", 0)],
    "snapshot.write": [("nsvlab.snapshot", "write_snapshot", 0)],
    "snapshot.read": [("nsvlab.snapshot", "read_snapshot", 0)],
    "monitor.evaluate_traces": [("nsvlab.monitor", "evaluate_traces", None)],
    "monitor.checks": [
        ("nsvlab.monitor", "h52_energy_residual", None),
        ("nsvlab.monitor", "h12_log_growth_check", None),
        ("nsvlab.monitor", "xm1_gronwall_check", None),
    ],
    "monitor.write_csv": [("nsvlab.monitor", "write_monitor_csv", None)],
}

FFT_GROUP = "fields.fft"


@dataclass
class Span:
    group: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0
    outermost: bool = True


class Tracer:
    """Collects spans and counts; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self, group: str) -> int:
        parent = self._stack[-1] if self._stack else None
        depth = self._active.get(group, 0)
        self._active[group] = depth + 1
        self.spans.append(Span(group, time.perf_counter(), parent=parent, outermost=depth == 0))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        self._active[span.group] -= 1
        if span.parent is not None:
            self.spans[span.parent].child_time += span.end - span.start

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def collect(self) -> dict[str, float]:
        """Per-group totals of the spans recorded since the last reset.

        Keys: ``<group>.s`` (outermost span time), ``<group>.self_s``
        (self time of every span) and ``<group>.calls`` (outermost calls),
        plus the raw counters.
        """
        out: dict[str, float] = dict(self.counts)
        for span in self.spans:
            duration = span.end - span.start
            out[span.group + ".self_s"] = (
                out.get(span.group + ".self_s", 0.0) + duration - span.child_time
            )
            if span.outermost:
                out[span.group + ".s"] = out.get(span.group + ".s", 0.0) + duration
                out[span.group + ".calls"] = out.get(span.group + ".calls", 0) + 1
        return out

    # -- patching ---------------------------------------------------------

    def _wrap(self, group: str, fn, path_arg: int | None):
        tracer = self

        if group == FFT_GROUP:

            def fft_wrapper(*args, **kwargs):
                index = tracer.enter(group)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.leave(index)
                if tracer.spans[index].outermost:
                    size_in = getattr(args[0], "size", 0) if args else 0
                    tracer.add("fields.fft.points", max(int(size_in), int(result.size)))
                return result

            return fft_wrapper

        def wrapper(*args, **kwargs):
            index = tracer.enter(group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(index)
                if path_arg is not None and len(args) > path_arg:
                    path = args[path_arg]
                    if os.path.isfile(path):
                        tracer.add(group + ".bytes", os.path.getsize(path))

        return wrapper

    def install(self) -> None:
        """Patch every target in every module that holds it by name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        holders = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "nsvlab" or name.startswith("nsvlab."))
        ]
        for group, targets in TARGETS.items():
            for module_name, attr, path_arg in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                wrapper = self._wrap(group, original, path_arg)
                for holder in [module] + holders:
                    if getattr(holder, attr, None) is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, group: str):
        """Record one span of ``group`` around a block (harness-side layers)."""
        index = self.enter(group)
        try:
            yield
        finally:
            self.leave(index)
