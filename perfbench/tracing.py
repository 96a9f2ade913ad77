"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the public functions of the traced ``corrgeo``
modules with wrappers that record one span per call, and wraps
``numpy.linalg.eigh`` / ``numpy.linalg.solve`` to count the matrices they
factor.  The package calls its own modules through module attributes
(``sv.dplus_batch``, ``kernels.h0_build``, ``np.linalg.eigh``), so calls made
inside the package are caught too.  ``Tracer.uninstall`` restores every
replaced attribute; nothing under ``src/`` changes.

Spans are kept in memory as flat records and aggregated when the run ends.
Every span is attributed to the geometry the benchmark is running
(``Tracer.geometry``); solver iteration counts are also keyed by the training
epoch (``Tracer.epoch``, advanced by the benchmark at each epoch boundary).
"""

import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

# modules whose public functions get a span; linalg is measured by counts
TRACED_MODULES = ("solvers", "kernels", "geometry", "hyperbolic", "layers", "train", "data", "io")
# solver entry points whose returned iteration counts are recorded
ITERATING = frozenset({"solvers.dplus_batch", "solvers.dstar_batch"})


class Span:
    __slots__ = ("name", "geometry", "parent", "start", "end", "child_s")

    def __init__(self, name, geometry, parent, start):
        self.name, self.geometry = name, geometry
        self.parent, self.start = parent, start
        self.end = None
        self.child_s = 0.0

    @property
    def self_s(self):
        return (self.end - self.start) - self.child_s


class Tracer:
    def __init__(self, error_type=Exception):
        self.spans = []
        self.stack = []
        self.geometry = None
        self.epoch = 0
        self.error_type = error_type
        self.iters = defaultdict(list)      # (name, geometry, epoch) -> iteration arrays
        self.failures = defaultdict(int)    # (name, geometry) -> raised errors
        self.counts = defaultdict(int)      # (counter, geometry) -> matrices
        self._saved = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.geometry, parent, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except tracer.error_type:
                tracer.failures[(name, tracer.geometry)] += 1
                raise
            finally:
                tracer.close(span)
            if name in ITERATING:
                tracer.iters[(name, tracer.geometry, tracer.epoch)].append(np.asarray(out[1]))
            return out

        return traced

    # -- counters ----------------------------------------------------------

    def _counting(self, counter, fn, batch_shape):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[(counter, tracer.geometry)] += math.prod(batch_shape(*args))
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the public functions of the traced modules of ``package``."""
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package.__name__}.{short}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith(package.__name__):
                    continue
                self._replace(module, attr, self.wrap(f"{short}.{attr}", fn))
            if short == "train":
                for cls in (module.Adam, module.Sgd):
                    self._replace(cls, "step", self.wrap("train.optimizer_step", cls.step))
        self._replace(np.linalg, "eigh", self._counting(
            "linalg.eigh_matrices", np.linalg.eigh, lambda a, *_, **__: np.shape(a)[:-2]))
        self._replace(np.linalg, "solve", self._counting(
            "linalg.solve_calls", np.linalg.solve, _solve_batch_shape))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def aggregate(self):
        """(name, geometry) -> [calls, inclusive seconds, self seconds]."""
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            row = table[(span.name, span.geometry)]
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += span.self_s
        return table

    def iteration_stats(self, name, geometry, epoch=None):
        """(mean, max) iterations per solved sample, or (0, 0) if none ran."""
        arrays = [a.ravel() for (n, g, e), lst in self.iters.items()
                  if n == name and g == geometry and (epoch is None or e == epoch)
                  for a in lst]
        if not arrays:
            return 0.0, 0
        allv = np.concatenate(arrays)
        return float(allv.mean()), int(allv.max())

    def nesting_errors(self, tol=1e-9):
        """Spans that leave their parent, have negative self time or stay open."""
        bad = []
        for span in self.spans:
            if span.end is None:
                bad.append(f"{span.name}: never closed")
                continue
            if span.self_s < -tol:
                bad.append(f"{span.name}: self time {span.self_s:.3e} s < 0")
            p = span.parent
            if p is not None and (span.start < p.start or span.end > p.end):
                bad.append(f"{span.name}: outside parent {p.name}")
        return bad


def _solve_batch_shape(a, b, *_, **__):
    a_batch = np.shape(a)[:-2]
    b_batch = np.shape(b)[:-2] if np.ndim(b) >= 2 else ()
    return np.broadcast_shapes(a_batch, b_batch)
