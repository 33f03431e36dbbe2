"""In-memory spans around the package's public functions, for the traced run.

``Tracer.install`` replaces every public function of the package's modules, in
each module namespace that holds it, and every public method of the package's
classes by a wrapper that records one span: name, start, end and parent span.
A span is named ``<layer>.<function>``; the layer is the defining module.
``cli`` and ``config`` are the front end: their own functions are not wrapped,
and the runner wraps ``cli.main`` as the root span, so argument parsing and
config loading count as the ``cli`` layer's self time.
"""
from __future__ import annotations

import enum
import sys
import types
from time import perf_counter

PACKAGE = "insidermc"
FRONT_END = (f"{PACKAGE}.cli", f"{PACKAGE}.config")


def layer_of(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        # one (name id, parent index, start, end, points) tuple per span
        self.spans: list[tuple[int, int, float, float, int] | None] = []
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, count_points: bool = False):
        """``fn`` recording a span per call; ``count_points`` records the size of
        the first argument after ``self`` (the points a functional evaluates)."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            stack.append(len(spans))
            spans.append(None)
            try:
                return fn(*args, **kwargs)
            finally:
                i = stack.pop()
                points = getattr(args[1], "size", 1) if count_points else 0
                spans[i] = (nid, stack[-1] if stack else -1, t0, perf_counter(), points)

        return traced

    def _patch(self, owner: object, attr: str, fn, name: str) -> None:
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self.wrap(name, fn, count_points=attr == "evaluate")
            self._wrappers[id(fn)] = wrapper
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n.startswith(PACKAGE + ".") and m is not None
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith(PACKAGE + ".") or home in FRONT_END:
                    continue
                if isinstance(obj, types.FunctionType):
                    self._patch(mod, attr, obj, f"{layer_of(home)}.{obj.__name__}")
                elif (
                    isinstance(obj, type)
                    and home == mod.__name__
                    and not issubclass(obj, (BaseException, enum.Enum))
                ):
                    for name, meth in list(vars(obj).items()):
                        if not name.startswith("_") and isinstance(meth, types.FunctionType):
                            self._patch(obj, name, meth, f"{layer_of(home)}.{name}")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        self._wrappers.clear()

    def summary(self) -> dict:
        """Calls, inclusive seconds and points per span name; self seconds per layer.

        A span's self time is its duration minus the durations of its direct
        children. ``quad_nodes`` counts the points evaluated directly inside
        ``analytics.quadrature_expectation``.
        """
        k = len(self.names)
        calls, seconds, points = [0] * k, [0.0] * k, [0] * k
        layers = [n.split(".", 1)[0] for n in self.names]
        self_s: dict[str, float] = {}
        quad = self._ids.get("analytics.quadrature_expectation", -1)
        quad_nodes = 0
        spans = self.spans
        for n, p, t0, t1, pts in spans:
            d = t1 - t0
            calls[n] += 1
            seconds[n] += d
            points[n] += pts
            self_s[layers[n]] = self_s.get(layers[n], 0.0) + d
            if p >= 0:
                parent = spans[p][0]
                self_s[layers[parent]] = self_s.get(layers[parent], 0.0) - d
                if parent == quad:
                    quad_nodes += pts
        return {
            "calls": dict(zip(self.names, calls)),
            "seconds": dict(zip(self.names, seconds)),
            "points": dict(zip(self.names, points)),
            "self_s": self_s,
            "quad_nodes": quad_nodes,
        }
