"""In-memory spans around the public functions of each kbrw module.

The benchmark wraps functions from its own code; the package is not edited.
Each wrapped call records one span: name, start, end, parent span and the
counts read from its arguments or its result.  Spans stay in a list and are reduced to
per-layer metrics once the traced commands have finished.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root span
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


class Tracer:
    """Installs span-recording wrappers and takes every one of them out again."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.overhead_s = 0.0      # time spent in the wrappers, not in the wrapped
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording a span per call.  ``counter(counts, args, kwargs,
        result)`` runs after the span has closed, so counting costs no span
        time of its own; the wrapper's time outside the span, counting
        included, is added to ``overhead_s``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = tracer.clock()
            span = Span(name, tracer.clock(), 0.0,
                        tracer._stack[-1] if tracer._stack else -1)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if counter is not None:
                counter(span.counts, args, kwargs, result)
            tracer.overhead_s += tracer.clock() - entered - span.duration
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a wrapper."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, counter))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def still_wrapped(targets) -> list[str]:
    """Names of the ``(owner, attr, ...)`` targets that hold a span wrapper."""
    return [f"{getattr(t[0], '__name__', t[0])}.{t[1]}" for t in targets
            if hasattr(vars(t[0])[t[1]], "__perfbench_span__")]
