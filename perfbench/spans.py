"""Spans and counters recorded at the package's layer boundaries.

A Tracer replaces a module attribute (the name a caller looks up, such as
``principal.best_reply_cutoff`` or the ``eval_agent`` that ``simulate``
imported) with a wrapper. While the tracer is enabled, each call records a
span: name, start, end, the enclosing span, and a count of the units of
work the call was given (points, elements, batches). While it is disabled
the wrapper only forwards the call, so one process can time traced and
untraced rounds of the same work. Spans stay in memory until the run ends.
"""

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    units: int


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = []

    def _open(self, name, units):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, units))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._open(name, 0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def patch(self, module, attr, name, units=None):
        """Route calls through module.attr into spans called name.

        name may be a function of (args, kwargs) instead of a string;
        units(args, kwargs) gives the span's unit count, 0 by default.
        """
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            self._open(name(args, kwargs) if callable(name) else name,
                       units(args, kwargs) if units else 0)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close()

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def restore(self):
        """Put back every patched attribute, last patch first."""
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def summary(self):
        """Per span name: calls, units, total seconds and self seconds.

        Self time is a span's duration minus the durations of the spans it
        directly encloses.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for i, s in enumerate(self.spans):
            d = out.setdefault(s.name, {"calls": 0, "units": 0, "s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["units"] += s.units
            d["s"] += s.end - s.start
            d["self_s"] += s.end - s.start - child[i]
        return out

    def dump(self):
        return [[s.name, s.start, s.end, s.parent, s.units] for s in self.spans]
