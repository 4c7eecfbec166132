"""Outside-in tracing of plink's layers.

A Tracer rebinds every public function of the layer modules in every plink
module namespace that imported it, and wraps the public methods of the
classes those modules define (plus ``SimplicialComplex.__init__``).  Each
call of a wrapped function is a span whose parent is the span open when it
started; a call of a generator function opens one span per ``next()``.  Spans
are folded into per-function aggregates as they close, so memory stays flat:
self time is the span's duration minus the durations of its child spans.

Spans are only recorded while ``tracer.active`` is true, so the harness can
keep input preparation and reference checks out of the trace.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "plink"
LAYERS = ("complexes", "homology", "tugraph", "ohcp", "pipeline", "scxio")

# Per-simplex helpers run millions of times inside the layer that calls
# them; a span each would cost more than the helper itself.
UNWRAPPED = {"complexes.canon", "complexes.faces_of", "complexes.boundary_of"}


class _TracedGenerator:
    """Iterator proxy that times each next() of a generator as one span."""

    def __init__(self, tracer, key, gen):
        self._tracer, self._key, self._gen = tracer, key, gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._gen)
        tracer._open(self._key)
        try:
            item = next(self._gen)
        finally:
            tracer._close(self._key)
        tracer._on_yield(self._key, item)
        return item


class Tracer:
    """Span aggregator; use as a context manager around the traced calls."""

    def __init__(self):
        self.active = False
        self.calls = Counter()          # key -> calls (generators: creations)
        self.spans = Counter()          # key -> spans closed
        self.self_s = defaultdict(float)   # key -> self time
        self.total_s = defaultdict(float)  # key -> inclusive time
        self.edges = Counter()          # (parent key, child key) -> spans
        self.counters = Counter()       # named work counters from hooks
        self.wrapped = {}               # key -> layer
        self._stack = []                # open spans: [key, start, child_s]
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, key):
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, key)] += 1
        self._stack.append([key, time.perf_counter(), 0.0])

    def _close(self, key):
        end = time.perf_counter()
        k, start, child = self._stack.pop()
        dur = end - start
        self.spans[k] += 1
        self.self_s[k] += dur - child
        self.total_s[k] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def inside(self, key) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items()
                   if self.wrapped.get(k) == layer)

    # -- work counters read from arguments and results ----------------------

    def _on_call(self, key, args, result):
        c = self.counters
        if key == "complexes.SimplicialComplex.__init__":
            c["simplices_built"] += len(args[0].simplices)
        elif key == "homology.smith_normal_form":
            rows = args[0]
            c["snf_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif key == "ohcp.solve_lp_exact":
            lp = args[0]
            c["lp_cells"] += len(lp.rows) * len(lp.objective)
            if self.inside("ohcp.solve_ilp"):
                c["lp_solves_in_ilp"] += 1
        elif key == "tugraph.is_totally_unimodular":
            if isinstance(result.witness, frozenset):
                c["tu_witnesses"] += 1
        elif key == "homology.has_relative_torsion":
            if result.mode == "oracle":
                c["oracle_verdicts"] += 1
        elif key == "pipeline.reduce":
            for record in result[1].records:
                c["reduce_" + record.action] += 1

    def _on_yield(self, key, item):
        if key == "homology.enumerate_pure_pairs":
            if type(item).__name__ != "Truncated":
                self.counters["pairs_enumerated"] += 1
        elif key == "tugraph.enumerate_chordless_cycles":
            if item is not None:
                self.counters["cycles_enumerated"] += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.calls[key] += 1
                return _TracedGenerator(tracer, key, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(key)
            tracer._on_call(key, args, result)
            return result
        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        pkg = PACKAGE
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        replace = {}                    # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    if key in UNWRAPPED:
                        continue
                    self.wrapped[key] = layer
                    replace[id(obj)] = self._wrap(key, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._set(mod, name, replace[id(obj)])
        return self

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            constructor = (cls.__name__, name) == ("SimplicialComplex",
                                                   "__init__")
            if name.startswith("_") and not constructor:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, property) and attr.fget is not None:
                wrapped = property(self._wrap(key, attr.fget), attr.fset,
                                   attr.fdel, attr.__doc__)
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(key, attr.__func__))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(key, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(key, attr)
            else:
                continue
            self.wrapped[key] = layer
            self._set(cls, name, wrapped)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self.active = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per-function aggregates and call edges, for writing out."""
        funcs = {k: {"layer": self.wrapped[k], "calls": self.calls[k],
                     "spans": self.spans[k],
                     "self_s": round(self.self_s[k], 6),
                     "total_s": round(self.total_s[k], 6)}
                 for k in sorted(self.spans)}
        edges = [{"parent": p, "child": c, "spans": n}
                 for (p, c), n in sorted(self.edges.items(),
                                         key=lambda kv: (str(kv[0][0]),
                                                         kv[0][1]))]
        return {"functions": funcs, "edges": edges,
                "counters": dict(sorted(self.counters.items()))}
