"""In-memory span tracer that wraps quiltlab's public functions from outside.

A wrapped function records one span per call: name, start, end and the
index of the enclosing span.  Functions are wrapped at every module
attribute that is bound to them, because callers look them up there:
``quilt_enum`` calls the ``mark_subtemplate`` it imported from ``quilt``,
``_builder`` imports ``validate_template`` lazily inside a function, and
``quilt`` uses ``fields.bareiss_determinant`` under its own name.  Nothing
under ``src/`` is changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def close(self):
        self.spans[self._stack.pop()][END] = perf_counter()

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_return is not None:
                on_return(self.counters, result)
            return result

        return traced

    def install(self, module, attr, name, on_return=None):
        """Wrap ``module.attr`` and every other quiltlab binding of it."""
        orig = getattr(module, attr)
        wrapped = self.wrap(orig, name, on_return)
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "quiltlab"]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self.replace(mod, key, wrapped)

    def replace(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def summary(self):
        """Per span name: calls, total (inclusive) seconds and self seconds.

        Self time is the span's duration minus the time its child spans
        cover; spans of one thread nest, so the children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def count_within(self, name, ancestor):
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        hits = 0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            hits += parent >= 0
        return hits
