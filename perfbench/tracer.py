"""Span recorder that wraps thetacalc's public functions from outside.

Each layer is one thetacalc module.  A wrapper replaces a function under
every name it is looked up by: the module attribute of every thetacalc
module that holds the very same object (so a `from .algebra import mul`
done at import time and one done inside a function body are both
caught), or the class attribute for methods.  Submodules are reached
through `importlib`, because the package `__init__` rebinds
`thetacalc.schouten` to the function of that name.

Spans (name, start, end, parent) are kept in compact in-memory arrays and
written when the run ends.  Self time of a span is its duration minus the
durations of its direct children; a layer's total time is the sum of its
span durations (no layer calls itself, so nothing is counted twice).  Counters that the library does not
expose (block sizes of the eliminations, distinct coboundary columns) are
read at the same boundaries, from the arguments and results of the
wrapped calls, so they repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

MODULES = (
    "algebra",
    "cli",
    "cohomology",
    "deltaform",
    "linsolve",
    "normalizer",
    "parser",
    "printer",
    "schouten",
    "variational",
)

# span name -> (module, attribute) of the function, or (module, class, method)
FUNCTIONS = {
    "algebra.enumerate_basis": ("algebra", "enumerate_basis"),
    "algebra.mul": ("algebra", "mul"),
    "algebra.total_derivative": ("algebra", "total_derivative"),
    "variational.var_theta": ("variational", "var_theta"),
    "variational.var_u": ("variational", "var_u"),
    "variational.quotient_eq": ("variational", "Functional", "__eq__"),
    "variational.quotient_is_zero": ("variational", "Functional", "is_zero"),
    "schouten.schouten": ("schouten", "schouten"),
    "schouten.miura_apply": ("schouten", "miura_apply"),
    "schouten.jacobi_check": ("schouten", "jacobi_check"),
    "cohomology.ad_p1_column": ("cohomology", "_ad_p1_column"),
    "cohomology.decompose_h2": ("cohomology", "decompose_h2"),
    "cohomology.roundtrip": ("cohomology", "_assert_roundtrip"),
    "cohomology.quotient_basis": ("cohomology", "theta_quotient_basis"),
    "linsolve.eliminate": ("linsolve", "SparseSystem", "_eliminate"),
    "normalizer.normalize": ("normalizer", "normalize"),
    "parser.parse": ("parser", "parse"),
    "printer.format_poly": ("printer", "format_poly"),
}

# Functional.__eq__ and Functional.is_zero are one layer: equality in the
# quotient by total divergences.
MERGED = {"variational.quotient_is_zero": "variational.quotient_eq"}

COUNTERS = (
    "linsolve.unknowns",
    "linsolve.rows",
    "linsolve.nnz_in",
    "linsolve.nnz_out",
    "linsolve.rank",
    "linsolve.max_block_unknowns",
    "linsolve.infeasible",
    "cohomology.columns_distinct",
    "cohomology.column_reuse_ratio",
    "normalizer.degrees",
)

ROOT = "bench.item"


def layer_names():
    """Names of the span layers as reported (merged names folded)."""
    return sorted({MERGED.get(n, n) for n in FUNCTIONS})


def metric_names():
    """Every per-layer metric name a traced run reports."""
    out = []
    for name in layer_names():
        out += [f"{name}.calls", f"{name}.self_s", f"{name}.total_s"]
    return out + list(COUNTERS) + ["bench.unattributed_s"]


def _module(short):
    return importlib.import_module(f"thetacalc.{short}")


class Tracer:
    """Records spans around thetacalc calls while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._columns_seen = set()
        self._column_calls = 0

    # -- spans ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        span = self.span

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            out = span(name, fn, *args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters read at the wrapped boundaries -----------------------

    def _before_eliminate(self, args):
        _, ncols, rows, _ = args
        c = self.counts
        c["linsolve.unknowns"] += ncols
        c["linsolve.rows"] += len(rows)
        c["linsolve.nnz_in"] += sum(len(r) for r in rows)
        c["linsolve.max_block_unknowns"] = max(c["linsolve.max_block_unknowns"], ncols)

    def _after_eliminate(self, args, out):
        _, _, rows, rhs = args
        used, pivot_of = out
        c = self.counts
        c["linsolve.nnz_out"] += sum(len(r) for r in rows)
        c["linsolve.rank"] += len(pivot_of)
        if any(rhs[i] != 0 for i in range(len(rows)) if i not in used):
            c["linsolve.infeasible"] += 1

    def _before_column(self, args):
        self._column_calls += 1
        self._columns_seen.add(frozenset(args[0].terms.items()))

    def _after_normalize(self, args, out):
        self.counts["normalizer.degrees"] += out.order

    # -- install / uninstall -------------------------------------------

    def install(self):
        hooks = {
            "linsolve.eliminate": (self._before_eliminate, self._after_eliminate),
            "cohomology.ad_p1_column": (self._before_column, None),
            "normalizer.normalize": (None, self._after_normalize),
        }
        modules = [_module(m) for m in MODULES]
        for name, where in FUNCTIONS.items():
            before, after = hooks.get(name, (None, None))
            label = MERGED.get(name, name)
            if len(where) == 3:
                cls = getattr(_module(where[0]), where[1])
                fn = cls.__dict__[where[2]]
                self._patches.append((cls, where[2], fn))
                setattr(cls, where[2], self._wrap(label, fn, before, after))
                continue
            fn = getattr(_module(where[0]), where[1])
            wrapper = self._wrap(label, fn, before, after)
            for mod in modules + [sys.modules["thetacalc"]]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def summary(self):
        """Per-layer calls and self time, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = {}
        self_s = {}
        total_s = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            total_s[name] = total_s.get(name, 0.0) + dur
        out = {}
        for name in layer_names():
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.total_s"] = total_s.get(name, 0.0)
        counts = dict(self.counts)
        counts["cohomology.columns_distinct"] = len(self._columns_seen)
        calls_col = self._column_calls
        counts["cohomology.column_reuse_ratio"] = (
            (calls_col - len(self._columns_seen)) / calls_col if calls_col else 0.0
        )
        out.update(counts)
        out["bench.unattributed_s"] = self_s.get(ROOT, 0.0)
        return out

    def write(self, path_prefix):
        """Write the spans (binary arrays) and the summary (JSON)."""
        with open(f"{path_prefix}.spans", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        summary = self.summary()
        with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start), "summary": summary}, fh)
        return summary
