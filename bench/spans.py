"""Spans and counters recorded from outside the package.

`install` wraps every public function of the layer modules, at every module
binding where it can be looked up (the package namespace, each submodule,
and module-level dicts such as the CLI's route table), so calls between
modules go through the wrappers.  It also wraps public methods of the
layers' classes, counts constructions of those classes, and counts the
`mpmath.quad` calls the oracle makes.

A name that a later version of the package removes or renames is simply not
wrapped.  `Tracer.wrapped` lists the names that were found; run.py
reports any metric name missing from it as absent, with the value 0.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "entropy", "exact", "gegenbauer", "quadrature")
PACKAGE = "gegentropy"
ROOT = "bench.item"


class Tracer:
    """Records spans while an item is open; passes calls through otherwise."""

    def __init__(self):
        self.item = None
        #: [name, start, end, parent index or -1, item id]
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.maxima = {}
        self.wrapped = set()
        self._panel = None

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def begin_item(self, item_id):
        self.item = item_id
        return self._open(ROOT)

    def end_item(self, rec):
        self._close(rec)
        self.item = None

    def span(self, name, fn, on_result=None):
        quadrature_layer = name.startswith("quadrature.")

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            if quadrature_layer:
                self._panel = None
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(result)
            return result

        self.wrapped.add(name)
        return wrapper

    # -- counters -----------------------------------------------------------

    def counting_init(self, name, init):
        def wrapper(obj, *args, **kwargs):
            if self.item is not None:
                self.counts[name] += 1
            init(obj, *args, **kwargs)

        self.wrapped.add(name)
        return wrapper

    def counting_quad(self, quad):
        """mpmath.quad, counting calls and top-level panels.

        A call whose interval lies inside the last panel of the current
        oracle call is a subdivision of it; any other call opens a panel.
        """
        def wrapper(f, *points, **kwargs):
            if self.item is not None:
                self.counts["quadrature.quad_calls"] += 1
                try:
                    lo, hi = min(points[0]), max(points[0])
                except (IndexError, TypeError, ValueError):
                    lo = hi = None
                panel = self._panel
                if lo is None or panel is None or not panel[0] <= lo <= hi <= panel[1]:
                    self.counts["quadrature.panels"] += 1
                    self._panel = (lo, hi) if lo is not None else None
            return quad(f, *points, **kwargs)

        self.wrapped.update(("quadrature.quad_calls", "quadrature.panels"))
        return wrapper

    def record_max(self, name, value):
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self time and total time.  Self time is a
        span's duration minus the durations of its direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        functions = defaultdict(lambda: [0, 0.0, 0.0])
        for rec, c in zip(spans, child):
            agg = functions[rec[0]]
            agg[0] += 1
            agg[1] += rec[2] - rec[1] - c
            agg[2] += rec[2] - rec[1]
        return {"functions": dict(functions), "counts": dict(self.counts),
                "maxima": dict(self.maxima), "wrapped": sorted(self.wrapped)}


def _table_den_bits(tracer):
    def probe(table):
        try:
            bits = max(v.constant.denominator.bit_length() for v in table.values)
        except (AttributeError, TypeError, ValueError):
            return
        tracer.record_max("entropy.table_den_bits_max", bits)
    return probe


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions, methods and constructors."""
    import mpmath

    modules = [importlib.import_module(PACKAGE)]
    for layer in LAYERS:
        try:
            modules.append(importlib.import_module(f"{PACKAGE}.{layer}"))
        except ModuleNotFoundError:
            pass
    layer_modules = {m.__name__ for m in modules[1:]}

    def span_name(obj):
        return f"{obj.__module__.rpartition('.')[2]}.{obj.__qualname__}"

    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ in layer_modules:
                if obj not in wrappers:
                    name = span_name(obj)
                    probe = (_table_den_bits(tracer)
                             if name.startswith("entropy.integrals_") else None)
                    wrappers[obj] = tracer.span(name, obj, probe)
                setattr(module, attr, wrappers[obj])
            elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                  and not issubclass(obj, BaseException)):
                for meth_name, meth in list(vars(obj).items()):
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, meth_name, tracer.span(span_name(meth), meth))
                obj.__init__ = tracer.counting_init(
                    f"{span_name(obj)}.constructed", obj.__init__)
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, dict):
                for key, fn in list(value.items()):
                    if callable(fn) and fn in wrappers:
                        value[key] = wrappers[fn]
    mpmath.quad = tracer.counting_quad(mpmath.quad)
