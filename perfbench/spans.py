"""Spans around the public functions of each polarcover module.

Tracing is installed from outside the program: each public function below
is replaced, for the duration of ``Tracer.installed()``, by a wrapper that
records a span (name, start, end, parent, ru_maxrss at its end) in memory.
A layer's self time is its span's duration minus the time its child spans
cover.  The product helper of scheme_core is wrapped without a span, only
to count the dense products and their operand sizes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute path, span name).  Functions of one module that are
# not listed here run in the self time of whichever span called them; for
# the CLI that is argument parsing, export_scheme, JSON dumps and output.
SPANS = [
    ("finite_field", "construct_field", "finite_field.construct"),
    ("symplectic", "enumerate_generators", "symplectic.enumerate"),
    ("symplectic", "SymplecticSpace.distance_matrix", "symplectic.distance"),
    ("maslov", "CoherenceTable.sigma_matrix", "maslov.sigma"),
    ("cover", "CoverGraph.relation_matrix_index", "cover.relation"),
    ("scheme_core", "verify_scheme", "scheme_core.verify"),
    ("scheme_core", "spectral_data", "scheme_core.spectral"),
    ("scheme_core", "krein", "scheme_core.krein"),
    ("scheme_core", "q_poly_orderings", "scheme_core.orderings"),
    ("closed_form", "eigenmatrices_closed", "closed_form.eigenmatrices"),
    ("closed_form", "verify_thm71", "closed_form.thm71"),
    ("closed_form", "l1_closed", "closed_form.crosscheck"),
    ("closed_form", "q_sequence", "closed_form.crosscheck"),
    ("closed_form", "s_family", "closed_form.crosscheck"),
    ("closed_form", "crosscheck_P", "closed_form.crosscheck"),
    ("feasibility", "candidate_parameters", "feasibility.candidate"),
    ("feasibility", "check_feasibility", "feasibility.check"),
    ("feasibility", "verify_Lstar", "feasibility.lstar"),
    ("cli", "main", "cli"),
]

# Self-time metric of each span name.
SELF_METRIC = {name: (name + "_s" if name != "cli" else "cli.self_s")
               for _, _, name in SPANS}

PRODUCT_HELPER = ("scheme_core", "_exact_int_product")

COUNTERS = [
    "symplectic.generators", "symplectic.pairs", "cover.vertices",
    "cover.relation_mb", "scheme_core.verify_products",
    "scheme_core.verify_gflop", "scheme_core.verify_mb",
    "closed_form.points", "closed_form.identities_checked",
    "feasibility.checks_run",
]


@dataclass
class Span:
    name: str
    start: float
    parent: int          # index of the enclosing span, -1 at top level
    end: float = 0.0
    rss_kb: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)
    _operands: dict = field(default_factory=dict)   # id -> nbytes, per verify

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, name, fn):
        # The counter hook of a span, if it has one, is named after it.
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(),
                                   self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span = self.spans[idx]
                span.end = time.perf_counter()
                span.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if after is not None:
                after(result)
            return result
        return traced

    def _count_product(self, fn):
        @functools.wraps(fn)
        def counted(A, B):
            self.counters["scheme_core.verify_products"] += 1
            self.counters["scheme_core.verify_gflop"] += (
                2 * A.shape[0] * A.shape[1] * B.shape[1] / 1e9)
            self._operands[id(A)] = A.nbytes
            self._operands[id(B)] = B.nbytes
            return fn(A, B)
        return counted

    # Work counters, computed from what the public functions return.
    def _after_symplectic_enumerate(self, gens):
        m = len(gens)
        self.counters["symplectic.generators"] += m
        self.counters["symplectic.pairs"] += m * (m - 1) // 2

    def _after_cover_relation(self, R):
        self.counters["cover.vertices"] += R.shape[0]
        self.counters["cover.relation_mb"] += R.nbytes / 1e6

    def _after_scheme_core_verify(self, _tensor):
        self.counters["scheme_core.verify_mb"] += sum(self._operands.values()) / 1e6
        self._operands.clear()

    def _after_closed_form_eigenmatrices(self, _cf):
        self.counters["closed_form.points"] += 1

    def _after_closed_form_thm71(self, rep):
        self.counters["closed_form.identities_checked"] += rep.identities_checked

    def _after_feasibility_check(self, rep):
        self.counters["feasibility.checks_run"] += len(rep.checks)

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced functions everywhere polarcover binds them."""
        wrapped = {}                 # id(original) -> (original, wrapper)
        undo = []
        for mod, path, name in SPANS + [(*PRODUCT_HELPER, None)]:
            owner = importlib.import_module("polarcover." + mod)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = (self._wrap(name, original) if name
                       else self._count_product(original))
            wrapped[id(original)] = (original, wrapper)
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
        # Names bound by `from .x import f`, and defaults such as
        # feasibility.sweep(parameters=candidate_parameters).
        for modname, module in list(sys.modules.items()):
            if modname != "polarcover" and not modname.startswith("polarcover."):
                continue
            for key, value in list(vars(module).items()):
                if wrapped.get(id(value), (None,))[0] is value:
                    setattr(module, key, wrapped[id(value)][1])
                    undo.append((module, key, value))
                defaults = getattr(value, "__defaults__", None)
                if defaults and any(id(v) in wrapped for v in defaults):
                    value.__defaults__ = tuple(
                        wrapped[id(v)][1] if id(v) in wrapped else v
                        for v in defaults)
                    undo.append((value, "__defaults__", defaults))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def pass_metrics(self, wall):
        """Per-module metrics of the spans and counters recorded since reset()."""
        out = {metric: 0.0 for metric in SELF_METRIC.values()}
        child = [0.0] * len(self.spans)
        top = 0.0
        for span in self.spans:
            dur = span.end - span.start
            if span.parent >= 0:
                child[span.parent] += dur
            else:
                top += dur
        hwm = 0
        for span, covered in zip(self.spans, child):
            out[SELF_METRIC[span.name]] += span.end - span.start - covered
            if span.name.startswith("scheme_core."):
                hwm = max(hwm, span.rss_kb)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0.0)
        out["maslov.pairs_per_s"] = _ratio(out["symplectic.pairs"], out["maslov.sigma_s"])
        out["scheme_core.verify_gflops"] = _ratio(out["scheme_core.verify_gflop"],
                                                  out["scheme_core.verify_s"])
        out["scheme_core.rss_hwm_mb"] = hwm / 1024
        out["trace.wall_s"] = wall
        out["trace.uncovered_s"] = wall - top
        return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0
