"""Call spans recorded from outside the program, by rebinding its functions.

A `Tracer` replaces each named function with a wrapper that records one span
per call: name, start, end, parent span and optional facts about the call.
The wrapper is bound under every module attribute that held the original, so
a function imported by name into another module (``from .x import f``) is
traced there too.  `restore` puts every original back and reports whether
each one is in place again.

Self time of a span is its duration minus the part of it that its child spans
cover.  This module knows nothing about killform; `layers.py` says what to
wrap and how spans become metrics.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def root_coverage(spans: list[Span], lo: float, hi: float) -> float:
    """Share of [lo, hi] that falls inside a top-level span."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return covered(roots, lo, hi) / (hi - lo) if hi > lo else 0.0


class Tracer:
    """Records spans for the functions it wraps, until `restore` is called."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, facts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = Span(sid, name, self.clock(), 0.0,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if facts is not None:
                span.facts = facts(args, kwargs, result)
            return result
        return wrapper

    def wrap_function(self, name: str, owner, attr: str, modules, facts=None) -> int:
        """Trace owner.attr, rebinding it wherever one of `modules` holds it.

        Returns the number of places rebound (at least one: the owner).
        """
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, facts)
        sites = [owner] + [m for m in modules
                           if m is not owner and getattr(m, attr, None) is original]
        for site in sites:
            self._patched.append((site, attr, original))
            setattr(site, attr, wrapper)
        return len(sites)

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        ok = all(getattr(site, attr) is original for site, attr, original in self._patched)
        self._patched.clear()
        return ok


def package_modules(prefix: str) -> list:
    """Loaded modules of one package: the package itself and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]
