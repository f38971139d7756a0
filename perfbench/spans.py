"""Outside-in span tracer for the facadesim benchmark.

The tracer replaces a module or class attribute with a timing wrapper and
puts the original back on `restore()`.  Spans are not stored one by one (a
mission makes about a million of them); each closed span is folded into a
table keyed by (parent name, span name) holding calls, total time and self
time, which is what the per-layer metrics need.  A layer's self time is its
duration minus the time its child spans cover.

`mission.py` and `cli.py` import functions by name (`from .world import
simulate_scan`), so a function must be patched in the module that calls it,
not only in the module that defines it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time

# Self times below this are rounding, not a parent ending before its child.
_SELF_TOLERANCE_S = 1e-9


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []   # open spans: [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        # (parent name or None, span name) -> [calls, total s, self s]
        self.edges: dict[tuple[str | None, str], list] = {}
        self.counters: dict[str, float] = {}
        self.negative_self = 0      # spans whose children outlast them
        self.objects = 0            # frozen-dataclass constructions

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _close(self, name: str, frame: list, parent: list | None,
               dt: float) -> None:
        self_s = dt - frame[1]
        if self_s < -_SELF_TOLERANCE_S:
            self.negative_self += 1
        if parent is not None:
            parent[1] += dt
        key = (parent[0] if parent is not None else None, name)
        e = self.edges.get(key)
        if e is None:
            e = self.edges[key] = [0, 0.0, 0.0]
        e[0] += 1
        e[1] += dt
        e[2] += self_s

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call made by the benchmark itself."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self._close(name, frame, parent, dt)

    def wrap(self, fn, name: str, after=None):
        """Time `fn` as span `name`; `after(args, result)` runs untimed."""
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(name, frame, parent, dt)
            if after is not None:
                t1 = clock()
                after(args, result)
                # hook time is tracing cost: keep it out of the parent's self
                if parent is not None:
                    parent[1] += clock() - t1
            return result

        return traced

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # read through __dict__ so a staticmethod or classmethod wrapper
        # on a class is put back as it was
        original = (owner.__dict__[attr] if inspect.isclass(owner)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace `owner.attr` (a function or method) with a traced one."""
        fn = getattr(owner, attr)   # raises if a refactor removed it
        self._set(owner, attr, self.wrap(fn, name, after))

    def count_dataclass_inits(self, modules) -> None:
        """Count constructions of every frozen dataclass the modules define."""
        for mod in modules:
            for cls in vars(mod).values():
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and dataclasses.is_dataclass(cls)
                        and cls.__dataclass_params__.frozen):
                    self._set(cls, "__init__", self._counting(cls.__init__))

    def _counting(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            tracer.objects += 1
            init(obj, *args, **kwargs)

        return counted

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """Span name -> [calls, total s, self s], summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, self_s) in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def edge_table(self) -> list[dict]:
        return [{"parent": p, "name": n, "calls": c, "total_s": t,
                 "self_s": s}
                for (p, n), (c, t, s) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1])]
