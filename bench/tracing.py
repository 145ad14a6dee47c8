"""Per-layer tracing from outside the program.

The tracer wraps public arithdyn functions in place, keeps one span
(name, start, end, parent) per call in memory, and restores the originals
when it is closed.  A function is patched under every module-level name that
holds it, because modules bind some names at import (``experiments`` binds
``density_check`` and ``orbit``, ``heights`` binds ``orbit``, ``cli`` binds
``run_experiment``), and ``Polynomial.__rmul__`` is patched separately from
``__mul__`` because it is a separate class attribute.

Counters that need to look at arguments or results (term counts, bit sizes,
repeated work) are taken after the wrapped call returns.  Their cost is
recorded as a ``trace.observe`` span, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# (span name, module, attribute); "Class.method" patches a class attribute.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("experiments.run_experiment", "experiments", "run_experiment"),
    ("degrees.dynamical_degree_sequence", "degrees", "dynamical_degree_sequence"),
    ("heights.affine_height", "heights", "affine_height"),
    ("heights.height_sequence", "heights", "height_sequence"),
    ("heights.product_height_additivity", "heights", "product_height_additivity"),
    ("maps.apply", "maps", "TriangularMap.apply"),
    ("maps.compose", "maps", "TriangularMap.compose"),
    ("maps.orbit", "maps", "orbit"),
    ("qpoly.mul", "qpoly", "Polynomial.__mul__"),
    ("qpoly.mul", "qpoly", "Polynomial.__rmul__"),
    ("qpoly.substitute", "qpoly", "Polynomial.substitute"),
    ("qpoly.evaluate", "qpoly", "Polynomial.evaluate"),
    ("padic.vp", "padic", "vp"),
    ("padic.verify_stability", "padic", "verify_stability"),
    ("padic.verify_dominant_value", "padic", "verify_dominant_value"),
    ("padic.sector_report_csv", "padic", "sector_report_csv"),
    ("padic.case_n2_growth", "padic", "case_n2_growth"),
    ("density.bareiss_rank", "density", "bareiss_rank"),
    ("density.rational_rref", "density", "rational_rref"),
    ("density.density_check", "density", "density_check"),
]

SPAN_NAMES = sorted({name for name, _, _ in TARGETS})

# Per-layer metrics besides <span>.calls and <span>.self_s, with their units.
COUNTERS = {
    "heights.max_arg_bits": "bits",
    "qpoly.mul.out_terms": "count",
    "qpoly.max_terms": "count",
    "maps.step_useful_ratio": "ratio",
    "maps.max_coord_bits": "bits",
    "density.rref_useful_ratio": "ratio",
    "density.max_entry_bits": "bits",
    "experiments.out_bytes": "bytes",
}


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


def _bits(point) -> int:
    return max(c.numerator.bit_length() + c.denominator.bit_length() for c in point)


class Tracer:
    """Spans and counters of one traced pass; use as a context manager."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.max_arg_bits = 0
        self.mul_out_terms = 0
        self.max_terms = 0
        self.max_coord_bits = 0
        self.max_entry_bits = 0
        self.out_bytes = 0
        self.useful_steps = 0
        self.useful_rrefs = 0
        self._steps: set = set()
        self._rrefs: set = set()
        self._observers = {
            "heights.affine_height": self._on_height,
            "maps.apply": self._on_apply,
            "qpoly.mul": self._on_mul,
            "qpoly.substitute": self._on_poly,
            "density.bareiss_rank": self._on_bareiss,
            "density.rational_rref": self._on_rref,
        }

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "arithdyn" or n.startswith("arithdyn.")]
        for name, module, attribute in TARGETS:
            owner = sys.modules[f"arithdyn.{module}"]
            if "." in attribute:
                cls, attribute = attribute.split(".")
                owner = getattr(owner, cls)
                self._patch(owner, attribute, self._wrap(name, vars(owner)[attribute]))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
                spans.append(("trace.observe", end, perf_counter(), parent))
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def begin_operation(self) -> None:
        """Repeated work is counted within one CLI operation."""
        self._steps.clear()
        self._rrefs.clear()

    def _on_height(self, args, height) -> None:
        self.max_arg_bits = max(self.max_arg_bits, height.max_abs.bit_length())

    def _on_apply(self, args, image) -> None:
        f, point = args[0], tuple(args[1])
        if (f, point) not in self._steps:
            self._steps.add((f, point))
            self.useful_steps += 1
        self.max_coord_bits = max(self.max_coord_bits, _bits(image))

    def _on_poly(self, args, poly) -> None:
        if hasattr(poly, "terms"):
            self.max_terms = max(self.max_terms, len(poly.terms))

    def _on_mul(self, args, poly) -> None:
        if hasattr(poly, "terms"):
            self.mul_out_terms += len(poly.terms)
        self._on_poly(args, poly)

    def _on_bareiss(self, args, rank) -> None:
        bits = max((abs(x).bit_length() for row in args[0] for x in row), default=0)
        self.max_entry_bits = max(self.max_entry_bits, bits)

    def _on_rref(self, args, result) -> None:
        matrix = tuple(tuple(row) for row in args[0])
        if matrix not in self._rrefs:
            self._rrefs.add(matrix)
            self.useful_rrefs += 1

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of this pass (without ``trace.overhead_s``)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                # Calls nest on one thread, so the children of a span never
                # overlap and their durations add up to the time they cover.
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            if name in calls:
                calls[name] += 1
                self_s[name] += end - start - covered
        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        values.update(
            {
                "heights.max_arg_bits": self.max_arg_bits,
                "qpoly.mul.out_terms": self.mul_out_terms,
                "qpoly.max_terms": self.max_terms,
                "maps.step_useful_ratio": _ratio(self.useful_steps, calls["maps.apply"]),
                "maps.max_coord_bits": self.max_coord_bits,
                "density.rref_useful_ratio": _ratio(self.useful_rrefs, calls["density.rational_rref"]),
                "density.max_entry_bits": self.max_entry_bits,
                "experiments.out_bytes": self.out_bytes,
            }
        )
        return values


def _ratio(useful: int, attempts: int) -> float:
    """Useful share of attempts; 1.0 when nothing was attempted, since
    nothing was wasted."""
    return useful / attempts if attempts else 1.0


def combine(passes: list) -> dict:
    """Counts of the last pass (they repeat exactly) and median times."""
    out = dict(passes[-1])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in passes)
    return out
