"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces each target function by a wrapper in every
``quadrelax`` module namespace that holds it (``numeric_eigensystem`` is
imported into ``cli``, ``analysis`` and ``evolution`` as well as the package),
so calls are seen whichever namespace they go through.  ``patch(False)`` puts
the originals back and ``patch(True)`` the wrappers again.  Spans are kept in memory; ``dump`` writes them at the end.
A target that no longer exists is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from stats import median, ratio, self_time

PACKAGE = "quadrelax"


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: bool = True           # False: no span, only the result hook runs
    key_arg: bool = False       # fingerprint the first array argument
    on_result: str | None = None  # attribute of the result to record

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


#: the public functions whose spans the per-layer metrics are built from
TARGETS = (
    Target("cli", "main"),
    Target("cli", "write_table"),
    Target("curves", "read_curve"),
    Target("redfield_core", "assemble_block"),
    Target("redfield_core", "evaluate_block"),
    Target("redfield_core", "numeric_eigensystem", key_arg=True),
    Target("redfield_core", "analytic_eigensystem"),
    Target("redfield_core", "validate_against_reference_tables"),
    Target("evolution", "propagate"),
    Target("evolution", "build_longitudinal_model"),
    Target("evolution", "build_transverse_model"),
    Target("evolution", "MagnetizationModel.evaluate"),
    Target("analysis", "fit_redfield_joint"),
    Target("analysis", "joint_model_curves"),
    Target("analysis", "nelder_mead_minimize", span=False, on_result="fun"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    key: str | None = None
    error: str | None = None


def _block_key(args, kwargs) -> str | None:
    """Fingerprint of the first matrix argument (a block or its ``.matrix``)."""
    for value in (*args, *kwargs.values()):
        m = getattr(value, "matrix", value)
        if isinstance(m, np.ndarray):
            return f"{m.shape}:{hash(m.tobytes())}"
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.results: list[tuple[str, int | None, float]] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------------
    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if not target.span:
                result = fn(*args, **kwargs)
                value = getattr(result, target.on_result, None)
                if value is not None:
                    self.results.append((target.name, self.op, float(value)))
                return result
            span = Span(len(self.spans), target.name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.op,
                        key=_block_key(args, kwargs) if target.key_arg else None)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    # -- patching ------------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Find every namespace holding a target and put the wrappers there."""
        for target in targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ImportError:
                self.absent.append(target.name)
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patches.append((owner, attr, original, wrapper))
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        self.patch(True)

    def patch(self, on: bool) -> None:
        """Put the wrappers in place (on) or the original functions back (off)."""
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if on else original)

    # -- output --------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "results": self.results,
                       "spans": [vars(s) for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

#: metric name -> (unit, traced callables it is built from)
LAYER_SOURCES = {
    "cli.self_s": ("s", ["cli.main"]),
    "cli.write_table_s": ("s", ["cli.write_table"]),
    "curves.read_curve_s": ("s", ["curves.read_curve"]),
    "redfield_core.assemble_block.calls": ("count", ["redfield_core.assemble_block"]),
    "redfield_core.assemble_block_s": ("s", ["redfield_core.assemble_block"]),
    "redfield_core.validate_s": ("s", ["redfield_core.validate_against_reference_tables"]),
    "redfield_core.evaluate_block_s": ("s", ["redfield_core.evaluate_block"]),
    "redfield_core.numeric_eigensystem.calls": ("count", ["redfield_core.numeric_eigensystem"]),
    "redfield_core.numeric_eigensystem_s": ("s", ["redfield_core.numeric_eigensystem"]),
    "redfield_core.eig_repeat_frac": ("ratio", ["redfield_core.numeric_eigensystem"]),
    "redfield_core.analytic_eigensystem_s": ("s", ["redfield_core.analytic_eigensystem"]),
    "redfield_core.degenerate_frac": ("ratio", ["redfield_core.analytic_eigensystem"]),
    "evolution.propagate_s": ("s", ["evolution.propagate"]),
    "evolution.build_model_s": ("s", ["evolution.build_longitudinal_model",
                                      "evolution.build_transverse_model"]),
    "evolution.model_evaluate_s": ("s", ["evolution.MagnetizationModel.evaluate"]),
    "analysis.objective_evals": ("count", ["analysis.joint_model_curves"]),
    "analysis.objective_s": ("s", ["analysis.joint_model_curves"]),
    "analysis.fit_self_s": ("s", ["analysis.fit_redfield_joint"]),
    "analysis.restart_yield": ("ratio", ["analysis.nelder_mead_minimize"]),
    "tracing.eig_per_objective": ("ratio", ["redfield_core.numeric_eigensystem",
                                           "analysis.joint_model_curves"]),
}

#: relative distance from the best restart cost that still counts as reaching it
RESTART_RTOL = 1e-6


def layer_metrics(tracer: Tracer, ops) -> tuple[dict, dict]:
    """(metrics, bases): per-op medians of counts and times, pooled ratios.

    Times ending in ``_s`` are inclusive per op, except ``cli.self_s``,
    ``evolution.propagate_s`` and ``analysis.fit_self_s``, which are self
    times (span minus the time its child spans cover).  ``bases`` holds the
    pooled counts each ratio was taken over.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    by_op: dict = {op: [] for op in ops}
    for s in tracer.spans:
        if s.op in by_op:
            by_op[s.op].append(s)

    def per_op(names, value):
        return median([sum(value(s) for s in spans if s.name in names)
                       for spans in by_op.values()])

    def inclusive(*names):
        return per_op(names, lambda s: s.end - s.start)

    def own(*names):
        return per_op(names, lambda s: self_time(s.start, s.end, children.get(s.id, ())))

    def calls(*names):
        return per_op(names, lambda s: 1)

    eig_calls = eig_repeats = 0
    for spans in by_op.values():
        seen = set()
        for s in spans:
            if s.name == "redfield_core.numeric_eigensystem":
                eig_calls += 1
                eig_repeats += s.key is not None and s.key in seen
                seen.add(s.key)
    analytic = [s for spans in by_op.values() for s in spans
                if s.name == "redfield_core.analytic_eigensystem"]
    degenerate = sum(s.error == "DegenerateSpectrumError" for s in analytic)
    objective_total = sum(s.name == "analysis.joint_model_curves"
                          for spans in by_op.values() for s in spans)
    costs: dict = {}
    for name, op, value in tracer.results:
        if name == "analysis.nelder_mead_minimize" and op in by_op:
            costs.setdefault(op, []).append(value)
    restarts = sum(len(v) for v in costs.values())
    reached = sum(sum(c - min(v) <= RESTART_RTOL * abs(min(v)) for c in v)
                  for v in costs.values())

    metrics = {
        "cli.self_s": own("cli.main"),
        "cli.write_table_s": inclusive("cli.write_table"),
        "curves.read_curve_s": inclusive("curves.read_curve"),
        "redfield_core.assemble_block.calls": calls("redfield_core.assemble_block"),
        "redfield_core.assemble_block_s": inclusive("redfield_core.assemble_block"),
        "redfield_core.validate_s": inclusive("redfield_core.validate_against_reference_tables"),
        "redfield_core.evaluate_block_s": inclusive("redfield_core.evaluate_block"),
        "redfield_core.numeric_eigensystem.calls": calls("redfield_core.numeric_eigensystem"),
        "redfield_core.numeric_eigensystem_s": inclusive("redfield_core.numeric_eigensystem"),
        "redfield_core.eig_repeat_frac": ratio(eig_repeats, eig_calls),
        "redfield_core.analytic_eigensystem_s": inclusive("redfield_core.analytic_eigensystem"),
        "redfield_core.degenerate_frac": ratio(degenerate, len(analytic)),
        "evolution.propagate_s": own("evolution.propagate"),
        "evolution.build_model_s": inclusive("evolution.build_longitudinal_model",
                                             "evolution.build_transverse_model"),
        "evolution.model_evaluate_s": inclusive("evolution.MagnetizationModel.evaluate"),
        "analysis.objective_evals": calls("analysis.joint_model_curves"),
        "analysis.objective_s": inclusive("analysis.joint_model_curves"),
        "analysis.fit_self_s": own("analysis.fit_redfield_joint"),
        "analysis.restart_yield": ratio(reached, restarts),
        "tracing.eig_per_objective": ratio(eig_calls, objective_total),
    }
    bases = {
        "redfield_core.eig_repeat_frac": {"repeats": eig_repeats, "eigensolves": eig_calls},
        "redfield_core.degenerate_frac": {"degenerate": degenerate, "calls": len(analytic)},
        "analysis.restart_yield": {"reached_best": reached, "restarts": restarts},
        "tracing.eig_per_objective": {"eigensolves": eig_calls, "objective_evals": objective_total},
    }
    return metrics, bases


def absent_metrics(tracer: Tracer) -> list[str]:
    """Per-layer metrics built from a callable the program no longer has."""
    missing = set(tracer.absent)
    return [name for name, (_, sources) in LAYER_SOURCES.items()
            if missing.intersection(sources)]
