"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces every public function of every ``partlogic``
module, at each name a caller looks it up by (module attributes, public
dicts such as ``suites.SUITES``, and methods of the package's classes),
with a wrapper that records a span.  Spans are aggregated online per
label ``<module>.<qualname>``: calls, self time (span minus the spans it
contains) and inclusive time, so memory stays bounded however long the
run.  ``uninstall`` puts every original back.

Generator functions are timed per resumption, so the consumer's work
between items is not charged to them.  One derived counter is kept:
``refuter_assignments``, the ``eval_partition`` calls made directly
under ``find_partition_counterexample`` (one per assignment evaluated).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types

REFUTER = "formula.find_partition_counterexample"
EVALUATOR = "formula.eval_partition"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, self_s, total_s]
        self.refuter_assignments = 0
        self._stack: list[list] = []  # open spans: [label, child_s]
        self._refuter_open = 0
        self._wrappers: dict[int, object] = {}
        self._wrapper_ids: set[int] = set()
        self._undo: list[tuple] = []

    # --- spans ------------------------------------------------------------

    def _wrap(self, fn, label):
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def close(frame, start):
            elapsed = clock() - start
            stack.pop()
            stats[1] += elapsed - frame[1]
            stats[2] += elapsed
            if stack:
                stack[-1][1] += elapsed

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                stats[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = [label, 0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(frame, start)
                    yield item
            return generator

        is_refuter = label == REFUTER
        is_evaluator = label == EVALUATOR

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            if is_evaluator and tracer._refuter_open and stack and stack[-1][0] != EVALUATOR:
                tracer.refuter_assignments += 1
            if is_refuter:
                tracer._refuter_open += 1
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, start)
                if is_refuter:
                    tracer._refuter_open -= 1
        return wrapper

    def _wrapped(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            label = fn.__module__.split(".", 1)[1] + "." + fn.__qualname__
            wrapper = self._wrappers[id(fn)] = self._wrap(fn, label)
            self._wrapper_ids.add(id(wrapper))
        return wrapper

    # --- installing -------------------------------------------------------

    def install(self, package):
        """Wrap every public function reachable from the package's modules."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        classes = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if self._ours(value):
                    self._undo.append((setattr, module, name, value))
                    setattr(module, name, self._wrapped(value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if self._ours(item):
                            self._undo.append((dict.__setitem__, value, key, item))
                            value[key] = self._wrapped(item)
                elif isinstance(value, type) and value.__module__.startswith(package.__name__ + "."):
                    classes[id(value)] = value
        for cls in classes.values():
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                if isinstance(attr, (classmethod, staticmethod)) and self._ours(attr.__func__):
                    replacement = type(attr)(self._wrapped(attr.__func__))
                elif self._ours(attr):
                    replacement = self._wrapped(attr)
                else:
                    continue
                self._undo.append((setattr, cls, name, attr))
                setattr(cls, name, replacement)

    def uninstall(self):
        for restore, container, key, original in reversed(self._undo):
            restore(container, key, original)
        self._undo.clear()

    def _ours(self, value):
        return (isinstance(value, types.FunctionType) and value.__module__.startswith("partlogic.")
                and id(value) not in self._wrapper_ids)

    # --- reading ----------------------------------------------------------

    def table(self):
        """Per label: calls, self seconds and inclusive microseconds per call."""
        return {
            label: {
                "calls": calls,
                "self_s": self_s,
                "us_per_call": total_s / calls * 1e6 if calls else 0.0,
            }
            for label, (calls, self_s, total_s) in sorted(self.stats.items())
        }

    def inclusive_s(self, label):
        return self.stats.get(label, [0, 0.0, 0.0])[2]
