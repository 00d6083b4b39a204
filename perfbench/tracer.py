"""Spans around fermisde's layer functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a
timing wrapper. Module-level functions are replaced in every
``fermisde`` module namespace that binds the same object, so a name
imported with ``from .forward import linear_euler_forward`` is traced
in ``control`` and ``cli`` too; methods are replaced on their class.
Nothing under ``src/`` changes, and ``uninstall`` puts every original
back.

Each call records one span: name, parent span, start and end. Spans
stay in memory in flat arrays and are written once, by ``dump``. A
span's self time is its duration minus the time its child spans cover.
Counters (rows, pairs, bytes, ...) are read from the arguments and the
result after the call, outside the span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

_perf = time.perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows_in(args, kwargs, result):
    return {"rows_in": _arg(args, kwargs, 0, "masks").shape[0]}


def _rows(args, kwargs, result):
    return {"rows": _arg(args, kwargs, 0, "masks").shape[0]}


def _rows_ab(args, kwargs, result):
    a = _arg(args, kwargs, 0, "masks_a").shape[0]
    b = _arg(args, kwargs, 2, "masks_b").shape[0]
    return {"rows": a + b}


def _pairs(args, kwargs, result):
    a = _arg(args, kwargs, 0, "masks_a").shape[0]
    b = _arg(args, kwargs, 2, "masks_b").shape[0]
    return {"pairs": a * b}


def _keep(args, kwargs, result):
    rows = _arg(args, kwargs, 0, "amps").shape[0]
    keep = result[0]
    return {"rows_in": rows,
            "kept": rows if keep is None else int(np.count_nonzero(keep))}


def _element_terms(args, kwargs, result):
    return {"terms_max": args[0].n_terms}


def _path_terms(args, kwargs, result):
    terms = [x.n_terms for x in result]
    return {
        "steps": len(terms) - 1,
        "terms_max": max(terms),
        "terms_sum": sum(terms),
        "pruned_mass": result.diagnostics.get("pruned_mass", 0.0),
    }


def _sweeps(args, kwargs, result):
    return {"sweeps": result[1]}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# Counters folded by max instead of sum.
MAX_COUNTERS = {"terms_max"}

# (span name, module, attribute, counters). "Class.method" patches the
# class; "*.method" patches every fermisde class that defines the method.
LAYERS = [
    ("sparse.canonicalize", "fermisde._sparse", "canonicalize", _rows_in),
    ("sparse.merge_sum", "fermisde._sparse", "merge_sum", None),
    ("sparse.mul_generator", "fermisde._sparse", "mul_generator", _rows),
    ("sparse.pair_parity", "fermisde._sparse", "pair_parity", None),
    ("sparse.mul_full", "fermisde._sparse", "mul_full", _pairs),
    ("sparse.dot_conj", "fermisde._sparse", "dot_conj", _rows_ab),
    ("sparse.prune_keep", "fermisde._sparse", "prune_keep", _keep),
    ("algebra.CliffordElement.init", "fermisde.algebra",
     "CliffordElement.__init__", _element_terms),
    ("algebra.pairing", "fermisde.algebra", "pairing", None),
    ("algebra.lp_norm", "fermisde.algebra", "lp_norm", None),
    ("algebra.MatrixRep.matrix", "fermisde.algebra", "MatrixRep.matrix", None),
    ("operators.as_graded_scalar", "fermisde.operators",
     "*.as_graded_scalar", None),
    ("forward.frame_step", "fermisde.forward", "_Frame.step", None),
    ("forward.frame_prune", "fermisde.forward", "_Frame.prune", None),
    ("forward.frame_element", "fermisde.forward", "_Frame.element", None),
    ("forward.linear_euler_forward", "fermisde.forward",
     "linear_euler_forward", _path_terms),
    ("forward.euler_forward_difference", "fermisde.forward",
     "euler_forward_difference", None),
    ("backward.solve_stepwise", "fermisde.backward", "solve_stepwise", None),
    ("backward.solve_picard", "fermisde.backward", "solve_picard", _sweeps),
    ("backward.residual", "fermisde.backward", "residual", None),
    ("ito.right_integral", "fermisde.ito", "right_integral", None),
    ("ito.mrep_extract", "fermisde.ito", "mrep_extract", None),
    ("ito.bg_ratios", "fermisde.ito", "bg_ratios", None),
    ("control.cost", "fermisde.control", "cost", None),
    ("control.brute_force_optimum", "fermisde.control",
     "brute_force_optimum", None),
    ("control.first_adjoint", "fermisde.control", "first_adjoint", None),
    ("control.second_adjoint_deterministic", "fermisde.control",
     "second_adjoint_deterministic", None),
    ("control.mp_scan", "fermisde.control", "mp_scan", None),
    ("control.duality_check", "fermisde.control", "duality_check", None),
    ("control.variation_ladder", "fermisde.control", "variation_ladder",
     None),
    ("reporting.write_json", "fermisde.reporting", "write_json", _bytes),
    ("reporting.write_csv", "fermisde.reporting", "write_csv", None),
    ("cli.parse_problem", "fermisde.cli", "parse_problem", None),
    ("catalog.build", "fermisde.catalog", "build", None),
    # The benchmark calls cli.run once per pipeline call: these are the
    # top-level spans, and their self time is pipeline code outside
    # every layer above.
    ("cli.run", "fermisde.cli", "run", None),
]

# Spans whose individual durations are kept for percentiles.
SAMPLED = {"control.cost"}

# Per-layer metrics: span name -> fields. ``calls`` and ``self_s`` come
# from the spans; the other fields are counters (or derived from them).
METRICS = {
    "forward.frame_step": ("self_s",),
    "forward.frame_prune": ("self_s",),
    "forward.frame_element": ("self_s",),
    "forward.linear_euler_forward": (
        "calls", "self_s", "steps", "terms_max", "terms_sum", "pruned_mass",
    ),
    "sparse.dot_conj": ("calls", "self_s", "rows"),
    "algebra.pairing": ("calls", "self_s"),
    "sparse.prune_keep": ("calls", "self_s", "rows_in", "keep_ratio"),
    "sparse.canonicalize": ("calls", "self_s", "rows_in"),
    "sparse.merge_sum": ("calls", "self_s"),
    "sparse.mul_generator": ("calls", "self_s", "rows"),
    "algebra.CliffordElement.init": ("calls", "self_s", "terms_max"),
    "sparse.mul_full": ("calls", "self_s", "pairs"),
    "sparse.pair_parity": ("self_s",),
    "algebra.MatrixRep.matrix": ("calls", "self_s"),
    "algebra.lp_norm": ("calls", "self_s"),
    "operators.as_graded_scalar": ("calls", "self_s"),
    "control.cost": ("calls", "self_s", "p50_ms", "pmax_ms"),
    "control.brute_force_optimum": ("self_s",),
    "control.first_adjoint": ("self_s",),
    "control.second_adjoint_deterministic": ("self_s",),
    "control.mp_scan": ("self_s",),
    "control.duality_check": ("self_s",),
    "control.variation_ladder": ("self_s",),
    "forward.euler_forward_difference": ("calls", "self_s"),
    "backward.solve_stepwise": ("calls", "self_s"),
    "backward.solve_picard": ("calls", "self_s", "sweeps"),
    "backward.residual": ("self_s",),
    "ito.right_integral": ("calls", "self_s"),
    "ito.mrep_extract": ("calls", "self_s"),
    "ito.bg_ratios": ("calls", "self_s"),
    "reporting.write_json": ("calls", "self_s", "bytes"),
    "reporting.write_csv": ("calls", "self_s"),
    "cli.parse_problem": ("self_s",),
    "catalog.build": ("calls", "self_s"),
    "cli.run": ("calls", "self_s"),
}

UNITS = {
    "calls": "count", "self_s": "s", "steps": "count", "terms_max": "count",
    "terms_sum": "count", "pruned_mass": "norm", "rows": "count",
    "rows_in": "count", "keep_ratio": "ratio", "pairs": "count",
    "p50_ms": "ms", "pmax_ms": "ms", "sweeps": "count", "bytes": "B",
}


# Whole-run figures of the traced run, computed by the worker.
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {
        f"{span}.{field}": UNITS[field]
        for span, fields in METRICS.items()
        for field in fields
    }
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._restore = []
        self.patched = {}
        self.reset_totals()

    def reset_totals(self):
        """Start a new tally of calls, self time, counters and samples."""
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.samples = {name: [] for name in SAMPLED}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, measure=None):
        nid = self._id(name)
        stack = self._stack
        sampled = name in SAMPLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            self.span_end.append(0.0)
            start = _perf()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                self.span_end[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = (
                    self.self_s.get(name, 0.0) + duration - frame[1]
                )
                if sampled:
                    self.samples[name].append(duration)
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    old = self.counters.get(full, 0)
                    self.counters[full] = (
                        max(old, value) if key in MAX_COUNTERS
                        else old + value
                    )
            return result

        return traced

    def install(self):
        """Patch every layer function; ``patched`` lists each binding."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "fermisde"
                                  or key.startswith("fermisde."))
        ]
        for name, module, attr, measure in LAYERS:
            owner_name, _, method = attr.rpartition(".")
            home = sys.modules[module]
            if owner_name == "*":
                owners = self._classes_defining(modules, method)
            elif owner_name:
                owners = [getattr(home, owner_name)]
            else:
                owners = None
            if owners is not None:
                for cls in owners:
                    self._patch(cls, method, cls.__dict__[method], name,
                                measure)
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
                        self.patched.setdefault(name, []).append(
                            f"{m.__name__}.{key}"
                        )

    @staticmethod
    def _classes_defining(modules, method):
        seen = {}
        for m in modules:
            for value in vars(m).values():
                if (inspect.isclass(value)
                        and value.__module__.startswith("fermisde")
                        and method in value.__dict__):
                    seen[id(value)] = value
        return sorted(seen.values(), key=lambda c: c.__qualname__)

    def _patch(self, cls, method, original, name, measure):
        self._restore.append((cls, method, original))
        setattr(cls, method, self.wrap(name, original, measure))
        self.patched.setdefault(name, []).append(
            f"{cls.__module__}.{cls.__qualname__}.{method}"
        )

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []
        self.patched = {}

    def totals(self):
        """The current tally as per-layer metric values."""
        return {
            f"{span}.{field}": self._field(span, field)
            for span, fields in METRICS.items()
            for field in fields
        }

    def _field(self, span, field):
        if field == "calls":
            return self.calls.get(span, 0)
        if field == "self_s":
            return self.self_s.get(span, 0.0)
        if field == "keep_ratio":
            rows = self.counters.get(f"{span}.rows_in", 0)
            return self.counters.get(f"{span}.kept", 0) / rows if rows else 1.0
        if field in ("p50_ms", "pmax_ms"):
            data = sorted(self.samples.get(span, []))
            if not data:
                return 0.0
            if field == "p50_ms":
                index = len(data) // 2
            else:
                # The highest sample with at least 10 samples above it,
                # or the maximum when there are 10 or fewer.
                index = len(data) - 11 if len(data) > 10 else len(data) - 1
            return 1e3 * data[index]
        return self.counters.get(f"{span}.{field}", 0)

    def top_level_seconds(self, first_span):
        """Summed duration of root spans recorded since ``first_span``."""
        total = 0.0
        for i in range(first_span, len(self.span_start)):
            if self.span_parent[i] == -1:
                total += self.span_end[i] - self.span_start[i]
        return total

    def dump(self, path):
        """Write every span recorded, as arrays plus the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
