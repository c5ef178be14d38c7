"""Layer tracing installed from outside ``hup_lab``.

``Tracer.install`` replaces each public function of the six layer modules
with a wrapper that records a span (name, start, end, parent, operation)
and, for a few functions, a work count.  Every name bound to the same
function object anywhere in the package is replaced too, so calls through
imports such as ``hup_lab.classifier.complete_homogeneous`` or
``hup_lab.cli.exp_curve_ft`` are seen.  ``uninstall`` puts every original
back.  Spans stay in memory in flat arrays until ``metrics`` reduces them.

A span's self time is its duration minus the durations of its direct
children; the calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
from hup_lab.config import TOL

LAYERS = ("cli", "measures", "curves", "classifier", "sympoly", "linsys")

# Methods traced besides each module's ``__all__`` functions.
_METHODS = (("cli", "Report", "render"),)
# Methods that are only counted: they run once per quadrature panel batch,
# and a span there would cost more than the work it measures.
_COUNTED_METHODS = (("curves", "CurveDensity", "value_at"),)

WITNESS_BUILD = ("line_phase", "standard_witness_profile", "construct_single_line_witness")
MEASURE_FTS = ("line_system_ft", "cross_ft", "density_ft", "translation_periodicity_residual")


def _module(layer: str):
    return importlib.import_module(f"hup_lab.{layer}")


class Tracer:
    """Spans and work counts for one traced pass over the operations."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, label: str, fn, on_result=None):
        label_id = self._label_id(label)
        start, end, labels = self.start, self.end, self.label
        parent, op, open_spans, counts = self.parent, self.op, self._open, self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(open_spans[-1] if open_spans else -1)
            labels.append(label_id)
            op.append(self.op_id)
            end.append(0.0)
            open_spans.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{label}!{type(exc).__name__}"] += 1
                raise
            finally:
                end[idx] = perf()
                open_spans.pop()
            if on_result is not None:
                on_result(counts, result, args, kwargs)
            return result

        return traced

    def _counted(self, label: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(obj, t, *args, **kwargs):
            counts[label] += 1
            counts[label + ".nodes"] += int(np.size(t))
            return fn(obj, t, *args, **kwargs)

        return counted

    # ------------------------------------------------------------- patching

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "hup_lab" and not name.startswith("hup_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            module = _module(layer)
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    label = f"{layer}.{name}"
                    self._replace_everywhere(fn, self._wrap(label, fn, _HOOKS.get(label)))
        for layer, cls_name, meth in _METHODS + _COUNTED_METHODS:
            cls = getattr(_module(layer), cls_name)
            fn = cls.__dict__[meth]
            label = f"{layer}.{cls_name}.{meth}"
            if (layer, cls_name, meth) in _METHODS:
                wrapper = self._wrap(label, fn)
            else:
                wrapper = self._counted(label, fn)
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ reduction

    def self_times(self) -> dict[str, float]:
        """Total self time per span label, in seconds."""
        if not self.start:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        label = np.frombuffer(self.label, dtype=np.int32)
        per_label = np.bincount(label, weights=dur - child, minlength=len(self.labels))
        return dict(zip(self.labels, per_label.tolist()))

    def calls(self) -> Counter:
        """Number of spans per label."""
        per_label = np.bincount(np.frombuffer(self.label, dtype=np.int32), minlength=len(self.labels))
        return Counter(dict(zip(self.labels, per_label.tolist())))

    def save(self, path: Path) -> None:
        """Write every span to ``path`` (compressed ``.npz``)."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


# ------------------------------------------------------------- work counts
# Hooks read the arguments positionally, as every call site in hup_lab
# passes them.


def _quad(counts, result, args, kwargs):
    counts["curves.quad_results"] += 1
    if result.error <= kwargs.get("abs_tol", TOL.quad_abs):
        counts["curves.quad_within_tol"] += 1


def _h_ops(counts, result, args, kwargs):
    counts["sympoly.h_ops"] += int(args[0]) * len(args[1])


def _classified(counts, result, args, kwargs):
    etas, n, p = args[0], int(args[1]), int(args[2])
    m = len(etas)
    if n < m <= p:
        counts["classifier.searched"] += 1
        if result == n + 1:
            counts["classifier.exhaustive"] += 1
        else:
            counts["classifier.early_exit"] += 1


def _ft_points(counts, result, args, kwargs):
    counts["measures.ft_points"] += int(np.size(result))


def _grid_rows(counts, result, args, kwargs):
    counts["cli.grid_rows"] += int(result)


_HOOKS = {
    "curves.exp_curve_ft": _quad,
    "curves.absolute_mass": _quad,
    "sympoly.complete_homogeneous": _h_ops,
    "classifier.classify_fiber": _classified,
    "measures.line_system_ft": _ft_points,
    "measures.cross_ft": _ft_points,
    "cli.emit_grid": _grid_rows,
}


def layer_metrics(tracer: Tracer, ops: int, csv_bytes: int) -> dict:
    """Per-layer metrics, each as ``(value, unit)``.

    Counts and times are per operation of the traced pass; ratios are
    plain shares.
    """
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def s(*labels):
        return sum(self_s.get(label, 0.0) for label in labels) / ops

    def n(*keys):
        # a key names either a span label (its calls) or a work count
        return sum(calls.get(k, 0) + counts.get(k, 0) for k in keys) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    ft_calls = calls.get("curves.exp_curve_ft", 0)
    searched = counts.get("classifier.searched", 0)
    value_at = "curves.CurveDensity.value_at"
    refusals = [
        f"linsys.{name}!IllConditionedError"
        for name in ("triangularize_power_system", "solve_power_system", "hup_discriminant")
    ]
    out = {
        "curves.ft_calls": (n("curves.exp_curve_ft"), "count/op"),
        "curves.ft_self_s": (s("curves.exp_curve_ft"), "s/op"),
        "curves.surface_calls": (n("curves.surface_ft"), "count/op"),
        "curves.mass_s": (s("curves.absolute_mass"), "s/op"),
        "curves.witness_build_s": (s(*("curves." + f for f in WITNESS_BUILD)), "s/op"),
        "curves.nodes": (n(value_at + ".nodes"), "count/op"),
        "curves.nodes_per_ft": (ratio(counts.get(value_at + ".nodes", 0), ft_calls), "count"),
        "curves.value_at_calls": (n(value_at), "count/op"),
        "curves.within_tol_ratio": (
            ratio(counts.get("curves.quad_within_tol", 0), counts.get("curves.quad_results", 0)),
            "ratio",
        ),
        "curves.refusals": (n("curves.exp_curve_ft!OscillationBudgetError"), "count/op"),
        "classifier.classify_s": (s("classifier.classify_fiber"), "s/op"),
        "classifier.fibers": (n("classifier.classify_fiber"), "count/op"),
        "classifier.exhaustive_fibers": (n("classifier.exhaustive"), "count/op"),
        "classifier.early_exit_ratio": (
            ratio(counts.get("classifier.early_exit", 0), searched),
            "ratio",
        ),
        "classifier.cap_refusals": (n("classifier.classify_fiber!SubsetCapError"), "count/op"),
        "classifier.fold_s": (s("classifier.fold_periodic"), "s/op"),
        "classifier.partition_s": (s("classifier.partition"), "s/op"),
        "sympoly.h_calls": (n("sympoly.complete_homogeneous"), "count/op"),
        "sympoly.h_ops": (n("sympoly.h_ops"), "count/op"),
        "sympoly.h_s": (s("sympoly.complete_homogeneous"), "s/op"),
        "sympoly.e_calls": (n("sympoly.elementary_symmetric"), "count/op"),
        "sympoly.e_s": (s("sympoly.elementary_symmetric"), "s/op"),
        "linsys.reduce_calls": (n("linsys.triangularize_power_system"), "count/op"),
        "linsys.reduce_s": (s("linsys.triangularize_power_system"), "s/op"),
        "linsys.discriminant_calls": (n("linsys.hup_discriminant"), "count/op"),
        "linsys.discriminant_s": (s("linsys.hup_discriminant"), "s/op"),
        "linsys.gap_refusals": (n(*refusals), "count/op"),
        "measures.line_ft_calls": (n("measures.line_system_ft"), "count/op"),
        "measures.cross_ft_calls": (n("measures.cross_ft"), "count/op"),
        "measures.ft_points": (n("measures.ft_points"), "count/op"),
        "measures.ft_self_s": (s(*("measures." + f for f in MEASURE_FTS)), "s/op"),
        "cli.parse_s": (s("cli.load_scenario", "cli.parse_scenario_text"), "s/op"),
        "cli.run_scenario_s": (s("cli.run_scenario"), "s/op"),
        "cli.render_s": (s("cli.Report.render"), "s/op"),
        "cli.emit_grid_s": (s("cli.emit_grid"), "s/op"),
        "cli.grid_rows": (n("cli.grid_rows"), "count/op"),
        "cli.csv_bytes": (csv_bytes / ops, "count/op"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s(*(k for k in self_s if k.startswith(layer + "."))), "s/op")
    return out
