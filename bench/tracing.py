"""Span and count recorder for the traced run, installed from outside the library.

Each wrapper sits on the name its caller looks up: the class attribute for
methods, the module global for functions (``stablederiv.cli`` imports its
callees by name, so those are wrapped in ``cli``'s namespace). A wrapper
records one span (layer, start, end, parent span, op id) and, for some
layers, a work count taken from its arguments or result. Spans stay in memory
until ``write`` saves them; a layer's self time is its spans' durations minus
the time their direct child spans cover.

The per-point wrappers on ``Domain.contains`` make the traced mask slower than
the untraced one; the run reports that as ``trace.overhead_ms``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from stablederiv import cli, corpus, estimator, function_model as fm

# layers whose span count is reported as ``<layer>.calls``
CALL_COUNTS = ("function_model.mask", "function_model.truth_eval", "estimator.estimate",
               "estimator.step_bound", "corpus.get", "inequalities.m1_bound")
# layers whose total self time is reported as ``<layer>.self_s``
SELF_TIMES = ("function_model.mask", "function_model.oracle_eval", "function_model.noise",
              "function_model.truth_eval", "function_model.holder_probe",
              "function_model.grid_read", "estimator.estimate", "estimator.step_bound",
              "estimator.grid_kernel", "estimator.report_write", "cli.dispatch",
              "cli.validate", "cli.study", "cli.fit_slope", "cli.study_write", "corpus.get",
              "adversary.challenge", "adversary.scan", "inequalities.m1_bound")
# work counters filled in by the hooks below
WORK_COUNTS = ("function_model.oracle_eval.points", "function_model.noise.points",
               "function_model.truth_eval.points", "function_model.holder_probe.pairs",
               "function_model.grid_read.rows", "estimator.report_write.rows",
               "estimator.report_write.bytes", "cli.study_write.bytes",
               "adversary.scalar_evals")


def _size_of(param):
    def hook(counts, key, bound, result):
        counts[key] += int(np.size(bound.arguments[param]))
    return hook


def _holder_pairs(counts, key, bound, result):
    n = bound.arguments["grid_points"]
    counts[key] += n * (n - 1) // 2


def _grid_rows(counts, key, bound, result):
    counts[key] += len(result)


def _kept(counts, key, bound, result):
    counts["estimator.requested"] += int(np.size(bound.arguments["points"]))
    counts["estimator.kept"] += len(result.points)


def _report_rows_bytes(counts, key, bound, result):
    counts["estimator.report_write.rows"] += len(bound.arguments["self"].points)
    counts["estimator.report_write.bytes"] += os.path.getsize(bound.arguments["path"])


def _file_bytes(counts, key, bound, result):
    counts[key] += os.path.getsize(bound.arguments["path"])


def _scalar_evals(counts, key, bound, result):
    if np.isscalar(bound.arguments["x"]):
        counts[key] += 1


def targets():
    """(owner, attribute, layer or None for count-only, counter key, hook)."""
    noise_classes = [c for c in _subclasses(fm.NoiseModel) if "unit" in vars(c)]
    return [
        (fm.Domain, "contains", "function_model.mask", None, None),
        (fm.Domain, "require", "function_model.mask", None, None),
        (fm.FunctionOracle, "values", "function_model.oracle_eval",
         "function_model.oracle_eval.points", _size_of("xs")),
        (fm.FunctionOracle, "derivative_values", "function_model.truth_eval",
         "function_model.truth_eval.points", _size_of("xs")),
        *[(c, "unit", "function_model.noise", "function_model.noise.points", _size_of("x"))
          for c in noise_classes],
        (cli, "estimate_holder_seminorm", "function_model.holder_probe",
         "function_model.holder_probe.pairs", _holder_pairs),
        (fm.GridSignal, "from_csv", "function_model.grid_read",
         "function_model.grid_read.rows", _grid_rows),
        (fm.NoisyOracle, "eval_noisy", None, "adversary.scalar_evals", _scalar_evals),
        (estimator, "estimate", "estimator.estimate", None, _kept),
        (cli, "estimate", "estimator.estimate", None, _kept),
        *[(estimator, f, "estimator.step_bound", None, None)
          for f in ("optimal_step_c2", "optimal_step_holder", "error_bound_c2", "error_bound_holder")],
        (estimator.StepRule, "resolve", "estimator.step_bound", None, None),
        (cli, "estimate_on_grid", "estimator.grid_kernel", None, None),
        (estimator.EstimateReport, "to_csv", "estimator.report_write", None, _report_rows_bytes),
        (cli, "cli_dispatch", "cli.dispatch", None, None),
        (cli, "_validate_declaration", "cli.validate", None, None),
        (cli, "run_study", "cli.study", None, None),
        (cli, "fit_slope", "cli.fit_slope", None, None),
        (cli, "write_study_csv", "cli.study_write", "cli.study_write.bytes", _file_bytes),
        (corpus, "get", "corpus.get", None, None),
        (cli, "challenge", "adversary.challenge", None, None),
        (cli, "pointwise_bound_scan", "adversary.scan", None, None),
        (cli, "m1_bound", "inequalities.m1_bound", None, None),
    ]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Recorder:
    """Spans in flat arrays (one entry per span) plus a counter table."""

    def __init__(self):
        self.layer_ids: dict[str, int] = {}  # layer name -> id, in order of first use
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter[str] = Counter()

    def _wrap(self, fn, layer, key, hook):
        sig = inspect.signature(fn) if hook else None
        counts = self.counts

        def count(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(counts, key, bound, result)

        if layer is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result
            return counted

        lid = self.layer_ids.setdefault(layer, len(self.layer_ids))
        stack, spans_layer, spans_parent, spans_op = self.stack, self.layer, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            spans_layer.append(lid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_op.append(self.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                count(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, layer, key, hook in targets():
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, layer, key, hook)))
                else:
                    setattr(owner, attr, self._wrap(raw, layer, key, hook))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the durations of their direct children."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        per_layer = np.bincount(np.frombuffer(self.layer, dtype=np.int32), weights=own,
                                minlength=len(self.layer_ids))
        return {name: float(per_layer[i]) * 1e-9 for name, i in self.layer_ids.items()}

    def span_counts(self) -> dict[str, int]:
        per_layer = np.bincount(np.frombuffer(self.layer, dtype=np.int32),
                                minlength=len(self.layer_ids))
        return {name: int(per_layer[i]) for name, i in self.layer_ids.items()}

    def write(self, path) -> None:
        """Save all spans as a numpy archive (times in ns from perf_counter_ns)."""
        np.savez(path, layer_names=np.array(list(self.layer_ids)),
                 layer=np.frombuffer(self.layer, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except ``trace.overhead_ms``, as (value, unit)."""
    self_s, calls = rec.self_seconds(), rec.span_counts()
    out: dict[str, tuple[float, str]] = {}
    for layer in CALL_COUNTS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for key in WORK_COUNTS:
        out[key] = (rec.counts[key], "bytes" if key.endswith(".bytes") else "count")
    for layer in SELF_TIMES:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    requested = rec.counts["estimator.requested"]
    out["estimator.kept_ratio"] = (rec.counts["estimator.kept"] / requested if requested else 0.0,
                                   "ratio")
    return out
