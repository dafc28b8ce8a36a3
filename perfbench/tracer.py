"""Spans around the public functions of each robustlrs layer, recorded from
outside the package by patching module attributes.

`from .lrs import spectral` binds `decide.spectral`, so patching `lrs.spectral`
alone would miss the callers in `decide`.  `Tracer.install` therefore replaces
every binding of the original function in every loaded `robustlrs` module (or
only in the modules a target names), and patches methods on their class.
A span's self time is its duration minus the time covered by its child spans;
a recursive call adds to `calls` and `self_s` but not again to `s`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class _Stat:
    __slots__ = ("s", "self_s", "calls")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0


class _Frame:
    __slots__ = ("child", "by_name")

    def __init__(self):
        self.child = 0.0
        self.by_name = Counter()


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts = Counter()
        self.maxes: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._depth = Counter()

    # -- recording ----------------------------------------------------------
    def wrap(self, name, fn, on_return=None):
        stats, stack, depth = self.stats[name], self._stack, self._depth

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            depth[name] += 1
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = _clock() - t0
                stack.pop()
                depth[name] -= 1
                stats.calls += 1
                stats.self_s += d - frame.child
                if not depth[name]:
                    stats.s += d
                if stack:
                    stack[-1].child += d
                    stack[-1].by_name[name] += d
            if on_return is not None:
                on_return(self, args, kwargs, out, d, frame)
            return out

        traced.__wrapped__ = fn
        return traced

    def bump_max(self, key, value):
        if value > self.maxes.get(key, float("-inf")):
            self.maxes[key] = value

    # -- patching -----------------------------------------------------------
    def install(self, targets):
        """targets: (metric prefix, module, attribute path, binding modules
        or None for all, on_return hook)."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "robustlrs" or n.startswith("robustlrs."))
                  and m is not None]
        for name, module, path, scope, hook in targets:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hook)
            if outer:                         # a method: patch the class
                setattr(owner, attr, wrapped)
                continue
            bound = 0
            for mod in loaded:
                if scope is not None and mod.__name__ not in scope:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module}.{path} is bound nowhere")
