"""Outside-in tracing of the mevauction layers.

The tracer wraps, from outside the program, every public function of each
layer module plus ``PiecewiseStrategy.bid``.  ``from .x import y`` copies the
reference into the importing module, so each wrapper is installed on every
``mevauction`` namespace that bound the original object (for example
``mevauction.cli.iter_bundles`` as well as ``mevauction.empirics.iter_bundles``).

A span is ``[name, start, end, parent, busy, count]``: ``parent`` is the index
of the span that was open when it started (-1 for a root), ``busy`` the
seconds spent inside it and ``count`` the work it did (points evaluated,
nodes returned, blocks simulated, items yielded; 1 otherwise).  Generator
functions (``iter_bundles``, ``generate_synthetic``) return at once, so their
span sums the time spent in ``next()`` calls instead; its parent is the span
that was open at the first ``next()``, which is the span that consumed it.
A span's self time is its busy time minus the busy time of its children.

Spans stay in memory; ``write_spans`` writes them once, at exit.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("values", "equilibrium", "revenue", "simulate", "synthetic",
          "empirics", "diagnostics")

NAME, START, END, PARENT, BUSY, COUNT = range(6)


def _size_of_arg(position, keyword):
    def count(args, kwargs, result):
        v = args[position] if len(args) > position else kwargs[keyword]
        return int(np.size(v))
    return count


def _arg_value(position, keyword):
    def count(args, kwargs, result):
        return int(args[position] if len(args) > position else kwargs[keyword])
    return count


# span name -> work count taken from (args, kwargs, result)
COUNTERS = {
    "values.top_value_density": _size_of_arg(0, "v"),
    "values.rival_max_hazard_ratio": _size_of_arg(0, "v"),
    "equilibrium.solve_bid_ode": lambda args, kwargs, result: int(result.grid.size),
    "equilibrium.PiecewiseStrategy.bid": _size_of_arg(1, "v"),
    "simulate.run_many": _arg_value(2, "blocks"),
}


class Tracer:
    """Records spans around the layer calls of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._run(name, fn, None, args, kwargs)

    def _run(self, name, fn, count, args, kwargs):
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 1]
        spans.append(span)
        stack.append(len(spans) - 1)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span[END] = end
            span[BUSY] = end - span[START]
        if count is not None:
            span[COUNT] = count(args, kwargs, result)
        return result

    def _iterate(self, name, gen):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        span = index = None
        try:
            while True:
                t0 = clock()
                if span is None:
                    span = [name, t0, t0, stack[-1] if stack else -1, 0.0, 0]
                    spans.append(span)
                    index = len(spans) - 1
                stack.append(index)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    span[END] = t1
                    span[BUSY] += t1 - t0
                span[COUNT] += 1
                yield item
        finally:
            gen.close()

    def _wrapper(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))
            return traced_generator

        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, count, args, kwargs)
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer functions on every namespace of ``mevauction``."""
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None
                      and (name == "mevauction" or name.startswith("mevauction."))]
        for layer in LAYERS:
            module = sys.modules[f"mevauction.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrapper(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound, wrapper)
        strategy = sys.modules["mevauction.equilibrium"].PiecewiseStrategy
        self._patch(strategy, "bid",
                    self._wrapper("equilibrium.PiecewiseStrategy.bid", strategy.bid))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start", "end", "parent", "busy", "count"))
            for i, s in enumerate(self.spans):
                writer.writerow((i, s[NAME], f"{s[START]:.9f}", f"{s[END]:.9f}",
                                 s[PARENT], f"{s[BUSY]:.9f}", s[COUNT]))


def self_times(spans, lo: int, hi: int):
    """Self time of each span in ``spans[lo:hi]`` (a closed set of roots)."""
    child = [0.0] * (hi - lo)
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            child[s[PARENT] - lo] += s[BUSY]
    return [spans[lo + i][BUSY] - child[i] for i in range(hi - lo)]


def ancestor(spans, index: int, names, lo: int = 0):
    """Index of the nearest ancestor of ``index`` whose name is in ``names``."""
    p = spans[index][PARENT]
    while p >= lo:
        if spans[p][NAME] in names:
            return p
        p = spans[p][PARENT]
    return -1


def root(spans, index: int, lo: int = 0):
    while spans[index][PARENT] >= lo:
        index = spans[index][PARENT]
    return index
