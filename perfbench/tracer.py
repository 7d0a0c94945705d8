"""Spans around diskflow's public functions, installed from outside the package.

``install`` wraps every public function of every diskflow module and
replaces each reference to it in every diskflow module namespace, so a call
made through a module's own import (``navier_stokes``'s ``step_stokes``)
is traced like a call through the package.  A few further boundaries are
wrapped where they sit:

* ``RadialGrid.ddr`` on the class;
* scipy's banded Cholesky factorization and solve, separately for each module
  that imports them (``dynbc.*`` and ``fields.*`` spans);
* numpy's ``rfft``/``irfft`` (``fft.*`` spans);
* the observer handed to a marching function (``observe`` spans);
* files the package opens for writing, from open to close (``write`` spans).

Spans are kept in memory as [name, parent index, start, end] and reduced to
per-layer numbers by ``Trace`` at the end of the run.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import math
import sys
from contextlib import contextmanager
from time import perf_counter

# marching functions whose observer argument is traced as "observe"
_MARCHERS = {"dynbc.evolve", "stokes.evolve_stokes", "navier_stokes.evolve_ns"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name):
        self.spans.append([name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][3] = perf_counter()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()

        return traced

    def _observing(self, fn):
        """Trace the observer a marching function receives, then the function."""
        sig = inspect.signature(fn)
        inner = self.wrap(_span_name(fn), fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if bound.arguments.get("observer") is not None:
                bound.arguments["observer"] = self.wrap("observe", bound.arguments["observer"])
            return inner(*bound.args, **bound.kwargs)

        return traced

    def _open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if not any(c in mode for c in "wax"):
            return fh
        self.begin("write")
        return _TracedFile(self, fh)


class _TracedFile:
    """A file opened for writing whose ``with`` block is a 'write' span."""

    def __init__(self, tracer, fh):
        self._tracer, self._fh = tracer, fh

    def __enter__(self):
        return self._fh

    def __exit__(self, *exc):
        self._fh.close()
        self._tracer.end()


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(tracer):
    """Route every call into diskflow's layers through ``tracer``.

    Call once, after every diskflow module the run uses is imported.
    """
    import numpy as np

    from diskflow import dynbc, fields
    from diskflow.grid import RadialGrid

    modules = [m for name, m in sys.modules.items()
               if name == "diskflow" or name.startswith("diskflow.")]
    wrapped = {}
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                label = _span_name(fn)
                wrapped[fn] = tracer._observing(fn) if label in _MARCHERS else tracer.wrap(label, fn)
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
        mod.open = tracer._open
    for mod in (dynbc, fields):
        label = mod.__name__.rsplit(".", 1)[-1]
        mod.cholesky_banded = tracer.wrap(f"{label}.factorize", mod.cholesky_banded)
        mod.cho_solve_banded = tracer.wrap(f"{label}.solve", mod.cho_solve_banded)
    RadialGrid.ddr = tracer.wrap("grid.ddr", RadialGrid.ddr)
    np.fft.rfft = tracer.wrap("fft.rfft", np.fft.rfft)
    np.fft.irfft = tracer.wrap("fft.irfft", np.fft.irfft)


class Trace:
    """Per-name call counts, durations and self times of a finished trace.

    The run is split into root spans; ``tree`` selects the spans below one
    root name ("setup" or "run").  Self time is a span's duration minus the
    durations of its direct children (calls are sequential, so children never
    overlap).
    """

    def __init__(self, spans):
        n = len(spans)
        child = [0.0] * n
        root = [0] * n
        for i, (_, parent, start, end) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        self.stats = {}
        self.roots = {}
        for i, (name, parent, start, end) in enumerate(spans):
            if parent < 0:
                self.roots[name] = end - start
            tree = spans[root[i]][0]
            st = self.stats.setdefault((tree, name), [0, 0.0, 0.0, math.inf])
            dur = end - start
            st[0] += 1
            st[1] += dur
            st[2] += dur - child[i]
            st[3] = min(st[3], dur - child[i])

    def calls(self, names, tree="run"):
        return sum(self.stats.get((tree, n), (0,))[0] for n in names)

    def total(self, names, tree="run"):
        return sum(self.stats.get((tree, n), (0, 0.0))[1] for n in names)

    def self_total(self, names, tree="run"):
        return sum(self.stats.get((tree, n), (0, 0.0, 0.0))[2] for n in names)

    def min_self(self):
        return min((st[3] for st in self.stats.values()), default=0.0)

    def names(self, tree="run"):
        return sorted(n for t, n in self.stats if t == tree)
