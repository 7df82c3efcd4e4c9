"""Span tracer that times the katsphere layers from outside.

`Tracer.install` replaces every public function of the layer modules,
in every katsphere namespace that binds it, by a wrapper that records a
span; `Tracer.remove` puts the originals back.  Only names without a
leading underscore are wrapped, so the tracer survives refactors of
private helpers, and a public name that disappears simply yields no
span: the metrics built on it are reported as absent.

Each span knows its parent.  Self time is the span's duration minus the
durations of its direct children.  Aggregates per span name are kept for
every call; individual span records are kept in memory only for spans
of at least RECORD_MIN_S and written out by the caller at the end.

Per-element helpers called millions of times would be timed mostly by
their own wrapper.  The caller names them: `count_only` functions get a
wrapper that only counts calls (their time stays in the parent's self
time), and `skip` functions are left alone.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

PACKAGE = "katsphere"
LAYERS = ("complexes", "angles", "solver", "sphere", "verify",
          "polyhedron", "render", "jsonio")
RECORD_MIN_S = 1e-3


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0      # outermost activations only, so recursion
        self.self_s = 0.0       # is not counted twice
        self.depth = 0


class Tracer:
    def __init__(self, hooks=None, count_only=(), skip=()):
        """`hooks` maps a span name to f(tracer, args, result), called
        after each successful call to read counters off the result."""
        self.hooks = dict(hooks or {})
        self.count_only = frozenset(count_only)
        self.skip = frozenset(skip)
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.counters: dict[str, float] = defaultdict(float)
        self.records: list[tuple] = []
        self.nesting_errors = 0
        self.broken_hooks: set[str] = set()
        self.wrapped: set[str] = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, stat: SpanStat) -> list:
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else None
        frame = [time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        stat.depth += 1
        return frame

    def _exit(self, name: str, stat: SpanStat, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        stat.depth -= 1
        dur = end - frame[0]
        child = frame[1]
        if child > dur:
            self.nesting_errors += 1
        stat.calls += 1
        stat.self_s += dur - child
        if stat.depth == 0:
            stat.total_s += dur
        if self._stack:
            self._stack[-1][1] += dur
        if dur >= RECORD_MIN_S:
            self.records.append((frame[2], frame[3], self._op, name,
                                 frame[0], end))
        return dur

    def run_op(self, name: str, fn):
        """Run one benchmark operation as a root span."""
        self._op = name
        stat = self.stats["op"]
        frame = self._enter(stat)
        try:
            return fn()
        finally:
            self._exit("op:" + name, stat, frame)
            self._op = None

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        hook = self.hooks.get(name)
        if name in self.count_only:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, stat, frame)
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # the result no longer has the shape the hook reads
                    self.broken_hooks.add(name)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        layer_modules = {f"{PACKAGE}.{m}" for m in LAYERS}
        # find every binding first: patching a module as we go would hide
        # its functions from the modules visited after it
        bindings = []
        for mod_name in sorted(sys.modules):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            module = sys.modules[mod_name]
            for attr, val in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(val, types.FunctionType):
                    continue
                home = sys.modules.get(val.__module__)
                if val.__module__ not in layer_modules or \
                        getattr(home, val.__name__, None) is not val:
                    continue    # not a public layer function
                name = f"{val.__module__.rsplit('.', 1)[1]}.{val.__name__}"
                if name not in self.skip:
                    bindings.append((module, attr, val, name))
        wrappers: dict[int, object] = {}
        for module, attr, val, name in bindings:
            if id(val) not in wrappers:
                wrappers[id(val)] = self._wrap(name, val)
                self.wrapped.add(name)
            self._patched.append((module, attr, val))
            setattr(module, attr, wrappers[id(val)])

    def remove(self) -> bool:
        """Restore every patched name; True when all are back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(m, a) is o for m, a, o in self._patched)
        self._patched.clear()
        return ok

    # -- results -------------------------------------------------------------

    def self_time_consistent(self) -> bool:
        """Child spans never outlast their parent, and the self times of
        all layer spans fit inside the root operation spans."""
        ops = self.stats.get("op")
        if ops is None:
            return self.nesting_errors == 0
        inner = sum(s.self_s for n, s in self.stats.items() if n != "op")
        children = ops.total_s - ops.self_s
        # the two sides add the same intervals in a different order
        return self.nesting_errors == 0 and inner <= children * (1 + 1e-9) + 1e-6

    def dump(self) -> dict:
        return {
            "spans": [{"id": i, "parent": p, "op": op, "name": n,
                       "start": s, "end": e}
                      for (i, p, op, n, s, e) in self.records],
            "stats": {n: {"calls": s.calls, "total_s": s.total_s,
                          "self_s": s.self_s}
                      for n, s in sorted(self.stats.items())},
            "counters": dict(self.counters),
            "wrapped": sorted(self.wrapped),
            "broken_hooks": sorted(self.broken_hooks),
            "nesting_errors": self.nesting_errors,
        }
