"""In-memory span recorder and the attribute swapping that feeds it.

A span is one call into a traced function: its name, start and end
(``perf_counter_ns``), the index of the span that was open when it began
(its parent, -1 for a root) and an optional dict of attributes. Spans are
appended to a list and never written until the caller asks for them, so the
per-call cost is two clock reads and one list append.

Tracing is installed by swapping module (or class) attributes for wrappers:
every place a caller can look the function up by name is replaced, and
``Patch.restore`` puts the originals back. The traced program's source is
never edited.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans for one single-threaded run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []      # [name, start, end, parent, attrs]
        self.counters: dict = defaultdict(float)
        self._stack: list = []

    def begin(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        idx = self.begin(name, attrs)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        """A function that runs ``fn`` inside a span called ``name``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(tracer, attrs, args, kwargs, result)`` runs after the span
        closed and may fill ``attrs``, which is stored on the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            attrs = {} if after is not None else None
            idx = tracer.begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer, attrs, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[0]], s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter_ns", "names": names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def self_times(spans) -> list:
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def root_of(spans) -> list:
    """Index of each span's root ancestor."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[3] < 0 else roots[s[3]])
    return roots


def has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# --------------------------------------------------------------------------
# attribute swapping
# --------------------------------------------------------------------------

class Patch:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def swap_function(self, modules, original, replacement) -> int:
        """Replace every module attribute bound to ``original``; returns the count."""
        count = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, replacement)
                    count += 1
        return count

    def swap_class_attr(self, cls, name: str, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
