"""Spans around the calls one module makes into another, taken from outside.

A :class:`Tracer` replaces module attributes (the names a module bound
from another module, or the benchmark's own entry points) with timing
wrappers, and restores them on exit.  For every (function, parent) pair it
keeps the number of calls, the total time and the self time: the total
minus the time of wrapped calls made inside it.  Self times therefore sum
to the total time of the outermost spans.

A binding that no longer exists is recorded as absent instead of raising,
so the benchmark keeps working when a later version of the package drops
or renames an internal function.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # (name, parent) -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.present = set()
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name):
        """Time every call made through ``owner.attr`` under ``name``."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return
        self.present.add(name)
        stack, stats = self._stack, self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "bench"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = stats[(name, parent)]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def absorb(self, other, scale=1.0):
        """Add another tracer's rows, with its times multiplied by ``scale``."""
        self.present |= other.present
        for key, (c, t, s) in other.stats.items():
            row = self.stats[key]
            row[0] += c
            row[1] += t * scale
            row[2] += s * scale

    def totals(self, name):
        """(calls, total seconds, self seconds) of ``name`` over all parents."""
        calls = total = own = 0
        for (n, _), (c, t, s) in self.stats.items():
            if n == name:
                calls += c
                total += t
                own += s
        return calls, total, own

    def pairs(self):
        """Every (function, parent) row, for the detailed trace line."""
        return [
            {"function": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.stats.items())
        ]
