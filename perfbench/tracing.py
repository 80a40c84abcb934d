"""Spans and call counts at the package's layer boundaries.

The tracer wraps the public functions of the eight framec modules from
outside.  A function imported with `from .linalg import solve_min_norm`
is a separate binding in every importing module, so each wrapper is
bound in every framec module that holds the original.  numpy.linalg.svd
is wrapped too, counting only calls made from framec code.

Spans carry a name, start, end, parent span, instance id and phase; they
stay in memory and are written out once, at the end.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("linalg", "_complete", "direct", "product", "svdparam", "frames",
           "matio", "cli")
# Cheap functions called many times per completion: a span would cost
# more than their work, so they only count calls.
COUNT_ONLY = {"linalg.as_matrix", "linalg.adjoint", "linalg.default_tol",
              "_complete.unpermute"}
# In cli only run() is wrapped, so that its self time holds argument
# parsing, the route agreement check and the JSON encoding of the report.
CLI_WRAPPED = {"run"}
SVD = "numpy.linalg.svd"


def layer_name(name: str) -> str:
    """Metric prefix of a span name: metric names may not start with '_'."""
    return name.lstrip("_")


class Tracer:
    """Installs wrappers, records spans and counts, then restores."""

    def __init__(self):
        # Each span: [name, start_ns, end_ns, parent, instance, phase].
        self.spans = []
        self.calls = Counter()    # (phase, name) -> calls
        self.errors = Counter()   # name -> calls that raised
        self.instance = -1
        self.phase = ""
        self._stack = []
        self._restore = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[self.phase, name] += 1
            rec = [name, clock(), 0, stack[-1] if stack else -1,
                   self.instance, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[self.phase, name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
        return wrapper

    def _rebind(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        layers = [importlib.import_module(f"framec.{m}") for m in MODULES]
        framec_modules = [m for n, m in list(sys.modules.items())
                          if n == "framec" or n.startswith("framec.")]
        for short, mod in zip(MODULES, layers):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (short == "cli" and attr not in CLI_WRAPPED)):
                    continue
                name = f"{short}.{attr}"
                make = self._count if name in COUNT_ONLY else self._span
                self._rebind(fn, make(name, fn), framec_modules)

        svd, span = np.linalg.svd, self._span(SVD, np.linalg.svd)

        @functools.wraps(svd)
        def svd_from_framec(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("framec"):
                return span(*args, **kwargs)
            return svd(*args, **kwargs)
        np.linalg.svd = svd_from_framec
        self._restore.append((np.linalg, "svd", svd))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def active(self, phase):
        """Wrappers installed for the block; its spans carry `phase`."""
        self.phase = phase
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def totals(self):
        """name -> {"calls", "errors", "ms", "self_ms"} over all phases."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "errors": 0, "ms": 0.0,
                                   "self_ms": 0.0})
        for (_, name), n in self.calls.items():
            out[name]["calls"] += n
        for name, n in self.errors.items():
            out[name]["errors"] += n
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name]["ms"] += (end - start) / 1e6
            out[name]["self_ms"] += (end - start - child[i]) / 1e6
        return dict(out)

    def write(self, path):
        """Write the spans column-wise as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "name": [index[n] for n in cols[0]],
                       "start_ns": cols[1], "end_ns": cols[2],
                       "parent": cols[3], "instance": cols[4],
                       "phase": cols[5]}, fh)
