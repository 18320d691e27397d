"""Spans and counts around calls into screenfit's layers, for the traced run.

The tracer wraps public functions of the package from outside: every
module attribute that refers to a traced function is replaced by a
wrapper for the duration of a ``with Tracer():`` block and restored on
exit, so the program itself carries no instrumentation.  Functions are
patched in every namespace the program calls them through (``pipeline``
imports most of them by name; ``screening`` reaches ``varclus`` through
the module; ``evaluation.score`` imports ``encode_design`` at call time).

Each call records a span (name, start, end, parent span).  Per-layer
metrics are derived from the spans when the run is over:

* ``<layer>.<name>_s`` is the time covered by the outermost spans of
  that name, so a function nested in itself is not counted twice;
* counts are numbers of spans, or values read off the results
  (IRLS iterations, unconverged fits, "enter" steps, loaded cells);
* ``pipeline.self_s`` is the part of the root span (``run_pipeline`` or
  ``score_table_file``) that no direct child span covers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass

MODULES = (
    "screenfit",
    "screenfit.table",
    "screenfit.synthgen",
    "screenfit.screening",
    "screenfit.varclus",
    "screenfit.logit",
    "screenfit.evaluation",
    "screenfit.pipeline",
    "screenfit.config",
    "screenfit.cli",
)

# (span name, defining module, function name)
FUNCTIONS = (
    ("pipeline.run", "screenfit.pipeline", "run_pipeline"),
    ("pipeline.run", "screenfit.pipeline", "score_table_file"),
    ("table.load_table", "screenfit.table", "load_table"),
    ("table.impute", "screenfit.pipeline", "impute_numeric_columns"),
    ("table.impute_median", "screenfit.table", "impute_median"),
    ("table.split", "screenfit.table", "split_train_validation"),
    ("synthgen.generate", "screenfit.synthgen", "generate"),
    ("screening.run", "screenfit.screening", "run_screening"),
    ("screening.discrete_levels", "screenfit.screening", "discrete_levels"),
    ("screening.woe_iv", "screenfit.screening", "woe_iv"),
    ("screening.chi_square", "screenfit.screening", "chi_square_binary"),
    ("screening.t_test", "screenfit.screening", "t_test_multivalued"),
    ("screening.merge_levels", "screenfit.screening", "merge_levels"),
    ("screening.apply_level_mapping", "screenfit.screening", "apply_level_mapping"),
    ("varclus.correlation", "screenfit.varclus", "correlation_matrix_from_array"),
    ("varclus.cluster", "screenfit.varclus", "cluster_variables"),
    ("varclus.select", "screenfit.varclus", "select_representatives"),
    ("logit.stepwise", "screenfit.logit", "stepwise_select"),
    ("logit.fit_irls", "screenfit.logit", "fit_irls"),
    ("logit.prune", "screenfit.logit", "prune_collinear"),
    ("logit.encode_design", "screenfit.logit", "encode_design"),
    ("evaluation.score", "screenfit.evaluation", "score"),
    ("evaluation.decile_table", "screenfit.evaluation", "decile_table"),
)

# (span name, defining module, class, method); a name of None only counts calls.
METHODS = (
    (None, "screenfit.table", "DataTable", "__init__"),
    ("logit.design_select", "screenfit.logit", "DesignMatrix", "select"),
)

ROOT = "pipeline.run"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for none


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(parent: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Time in the parent interval that none of the child intervals covers."""
    lo, hi = parent
    clipped = [(max(s, lo), min(e, hi)) for s, e in children if e > lo and s < hi]
    return (hi - lo) - union_length(clipped)


class Tracer:
    """Context manager that wraps the traced functions and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()  # method calls counted without a span
        self.results: Counter = Counter()  # values read off results
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching
    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        try:
            for name, module, attr in FUNCTIONS:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            for name, module, cls_name, attr in METHODS:
                cls = getattr(importlib.import_module(module), cls_name)
                original = getattr(cls, attr)
                if name is None:
                    self._patch(cls, attr, self._count(f"{cls_name}.{attr}", original))
                else:
                    self._patch(cls, attr, self._wrap(name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result) -> None:
        if name == "logit.fit_irls":
            self.results["irls_iterations"] += result.iterations
            self.results["fits_unconverged"] += int(not result.converged)
        elif name == "logit.stepwise":
            _model, trace = result
            self.results["entered"] += sum(s.action == "enter" for s in trace.steps)
        elif name == "table.load_table":
            self.results["cells"] += result.n_records * len(result.schema.columns)
        elif name == "varclus.correlation":
            self.results["cluster_variables"] += len(result.names)

    # -- reading the spans
    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def busy(self, name: str) -> float:
        """Seconds covered by the outermost spans of one name."""
        return union_length(
            [
                (s.start, s.end)
                for s in self.spans
                if s.name == name and not self._has_ancestor(s, name)
            ]
        )

    def count(self, name: str) -> int:
        return sum(s.name == name for s in self.spans)

    def root_accounting(self) -> tuple[float, float, float]:
        """(root span seconds, seconds in its direct children, self seconds)."""
        roots = [i for i, s in enumerate(self.spans) if s.name == ROOT and s.parent < 0]
        if len(roots) != 1:
            raise ValueError(f"expected one root span, found {len(roots)}")
        root = self.spans[roots[0]]
        children = [(s.start, s.end) for s in self.spans if s.parent == roots[0]]
        own = self_time((root.start, root.end), children)
        return root.end - root.start, sum(e - s for s, e in children), own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values (without the unit) of one traced operation."""
        busy = self.busy
        load_s = busy("table.load_table")
        fits_in_stepwise = sum(
            s.name == "logit.fit_irls" and self._has_ancestor(s, "logit.stepwise")
            for s in self.spans
        )
        entered = self.results["entered"]
        total, _children, own = self.root_accounting()
        return {
            "table.load_table_s": load_s,
            "table.load_cells_per_s": self.results["cells"] / load_s if load_s > 0 else 0.0,
            "table.impute_s": busy("table.impute"),
            "table.impute_median_calls": self.count("table.impute_median"),
            "table.tables_built": self.calls["DataTable.__init__"],
            "table.split_s": busy("table.split"),
            "synthgen.generate_s": busy("synthgen.generate"),
            "screening.run_s": busy("screening.run"),
            "screening.discrete_levels_s": busy("screening.discrete_levels"),
            "screening.discrete_levels_calls": self.count("screening.discrete_levels"),
            "screening.woe_iv_s": busy("screening.woe_iv"),
            "screening.chi_square_s": busy("screening.chi_square"),
            "screening.t_test_s": busy("screening.t_test"),
            "screening.merge_levels_s": busy("screening.merge_levels"),
            "screening.apply_level_mapping_s": busy("screening.apply_level_mapping"),
            "varclus.correlation_s": busy("varclus.correlation"),
            "varclus.cluster_s": busy("varclus.cluster"),
            "varclus.select_s": busy("varclus.select"),
            "varclus.variables": self.results["cluster_variables"],
            "logit.stepwise_s": busy("logit.stepwise"),
            "logit.fit_irls_s": busy("logit.fit_irls"),
            "logit.fit_irls_calls": self.count("logit.fit_irls"),
            "logit.irls_iterations": self.results["irls_iterations"],
            "logit.fits_unconverged": self.results["fits_unconverged"],
            "logit.design_select_s": busy("logit.design_select"),
            "logit.prune_s": busy("logit.prune"),
            "logit.fits_per_entered_term": fits_in_stepwise / entered if entered else 0.0,
            "logit.encode_design_s": busy("logit.encode_design"),
            "evaluation.score_s": busy("evaluation.score"),
            "evaluation.decile_table_s": busy("evaluation.decile_table"),
            "pipeline.self_s": own,
            "pipeline.total_s": total,
        }
