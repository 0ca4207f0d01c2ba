"""Span tracing of rotmorse from outside the package.

``Tracer.install`` replaces every public function of every ``rotmorse``
module, and every method of ``IntPolynomial``, by a wrapper that records a
span, under every module name that binds the function: ``gradient_flow``
looks up ``riemannian.retract``, not ``rotations.retract``, and ``cli``
binds names from all the other modules. A span's layer is the module that
defines the function. ``Tracer.uninstall`` puts the originals back.

Spans live in flat arrays in memory (start, end, function id, parent span,
command id) and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

LAYERS = ("rotations", "riemannian", "critical", "topology", "intpoly", "verify", "cli")


class Tracer:
    def __init__(self):
        self.functions = []  # (layer, name) per function id
        self.start = array("d")
        self.end = array("d")
        self.fn = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.command_id = -1
        self._stack = [-1]
        self._plan = []  # (owner, attribute, original, wrapper)

    def _wrap(self, func, layer: str, name: str):
        fid = len(self.functions)
        self.functions.append((layer, name))
        start, end, fns, parent, command, stack = (
            self.start, self.end, self.fn, self.parent, self.command, self._stack
        )
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            sid = len(fns)
            fns.append(fid)
            parent.append(stack[-1])
            command.append(tracer.command_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        return functools.update_wrapper(span, func)

    def install(self, package: str = "rotmorse"):
        """Put the wrappers in place; they are built on the first call."""
        if not self._plan:
            self._plan = list(self._build(package))
        for owner, attribute, _, wrapper in self._plan:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in self._plan:
            setattr(owner, attribute, original)

    def _build(self, package):
        """Yield (owner, attribute, original, wrapper) for every patch."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers = {}
        for module in modules:
            for attribute, obj in list(vars(module).items()):
                origin = getattr(obj, "__module__", None) or ""
                if (
                    attribute.startswith("_")
                    or isinstance(obj, (type, types.ModuleType))
                    or not callable(obj)
                    or not origin.startswith(package + ".")
                ):
                    continue
                if id(obj) not in wrappers:
                    name = getattr(obj, "__name__", attribute)
                    wrappers[id(obj)] = self._wrap(obj, origin.rsplit(".", 1)[-1], name)
                yield module, attribute, obj, wrappers[id(obj)]
        intpoly = sys.modules.get(package + ".intpoly")
        cls = getattr(intpoly, "IntPolynomial", None)
        for attribute, obj in list(vars(cls).items()) if cls is not None else ():
            name = f"IntPolynomial.{attribute}"
            if isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, "intpoly", name))
            elif isinstance(obj, property):
                new = property(self._wrap(obj.fget, "intpoly", name), obj.fset, obj.fdel, obj.__doc__)
            elif inspect.isfunction(obj):
                new = self._wrap(obj, "intpoly", name)
            else:
                continue
            yield cls, attribute, obj, new

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
            functions=np.array([f"{layer}.{name}" for layer, name in self.functions]),
        )

    def summary(self):
        """Per (layer, function): calls, inclusive seconds and self seconds;
        plus the total duration of root spans.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly (one thread), so the self times of all
        spans add up to the root-span total.
        """
        import numpy as np

        fn = np.array(self.fn, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.functions)
        calls = np.bincount(fn, minlength=k)
        inclusive = np.bincount(fn, weights=dur, minlength=k)
        own = np.bincount(fn, weights=dur - children, minlength=k)
        per_function = {}
        for i, key in enumerate(self.functions):
            c, s, o = per_function.get(key, (0, 0.0, 0.0))
            per_function[key] = (c + int(calls[i]), s + float(inclusive[i]), o + float(own[i]))
        return per_function, float(dur[~nested].sum())

    def durations(self, layer: str, name: str):
        """Durations in seconds of every span of one function."""
        ids = {i for i, key in enumerate(self.functions) if key == (layer, name)}
        return [e - s for f, s, e in zip(self.fn, self.start, self.end) if f in ids]
