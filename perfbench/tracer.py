"""Spans and call counts around the public functions of ncmcast's modules.

The wrappers are installed from outside the program: every public
function and every public plain method of a public class defined in an
ncmcast module is replaced, in its own module and in every ncmcast module
that imported it by name (runner, simkit and virtualize do), so each
call is seen wherever it is looked up.  Spans nest through a stack; a
span's self time is its duration minus that of its child spans.  Spans
are aggregated in memory per name and per (parent, child) edge.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, seconds]
        self._stack: list[list] = []  # open spans: [name, child seconds]

    def wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                edge = self.edges.get((parent, name))
                if edge is None:
                    edge = self.edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed

        return traced

    def install(self, package: str = "ncmcast"):
        """Wrap the public functions of the loaded modules of `package`."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        replaced: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname[len(package) + 1:]
            if not short:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def report(self) -> dict:
        return {
            "layers": {
                name: {"calls": c, "s": s, "self_s": own}
                for name, (c, s, own) in sorted(self.stats.items())
            },
            "edges": [
                {"parent": parent, "child": child, "calls": c, "s": s}
                for (parent, child), (c, s) in sorted(self.edges.items())
            ],
        }
