"""Spans around the package's module-level functions, recorded from outside.

The tracer replaces every public function defined in a layer module with
a wrapper, in every module of the package that holds a reference to it.
Calls inside the package look their callees up through module globals,
so they pass through the wrappers too; nothing in the package is edited.
Spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter


class Tracer:
    """Records (name, start, end, parent) for every wrapped call.

    `counters` maps a span name to a function of the call's result that
    returns counts to add, so that work is counted at the same boundary
    where its time is measured.
    """

    def __init__(self, counters=None):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.wrapped: set = set()
        self._counters = dict(counters or {})
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    def install(self, package: str, layers) -> None:
        """Wrap the public functions of `package.<layer>` for each layer."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj)
                    self.wrapped.add(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((module, attr, obj))

    def remove(self) -> None:
        """Put every original function back."""
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def span_tuples(self) -> list:
        return [tuple(s) for s in self.spans]

    def write(self, path) -> None:
        records = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": records, "counts": dict(self.counts), "wrapped": sorted(self.wrapped)}, fh)
