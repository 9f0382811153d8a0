"""In-memory spans recorded around calls into ldimkit's modules.

A span is a name, a start, an end and the index of its parent span.  Spans
come from a ``Tracer.span`` block around a call or, while
``Tracer.wrapping`` is active, from each call made through a wrapped module
attribute, including calls that library code makes (e.g.
``realizers.lift_product`` inside ``build_bn_realizer``).  Outside that
block the attributes are the program's own, so the same replay code also
runs untraced.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the block as a span; yields its attribute dict."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, attrs))
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def wrapping(self, targets):
        """Replace each (owner, attribute, span name, describe) by a wrapper
        that records a span per call, for the duration of the block.
        ``describe(args, result)``, if given, returns attributes for the
        span; result is None when the call raised.  A cached_property is
        wrapped in its computing function, so only real computations show."""
        saved = []
        try:
            for owner, attr, name, describe in targets:
                original = vars(owner)[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if isinstance(original, cached_property):
                    replacement = cached_property(
                        self._wrapper(name, original.func, describe))
                    replacement.__set_name__(owner, attr)
                else:
                    replacement = self._wrapper(name, original, describe)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrapper(self, name, original, describe):
        def wrapped(*args, **kwargs):
            with self.span(name) as attrs:
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    if describe is not None:
                        attrs.update(describe(args, result))
        wrapped.__wrapped__ = original
        return wrapped

    # ------------------------------------------------------------ analysis

    def duration(self, i: int) -> float:
        return self.spans[i].end - self.spans[i].start

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [self.duration(i) for i in range(len(self.spans))]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                own[s.parent] -= self.duration(i)
        return own

    def ancestors(self, i: int):
        parent = self.spans[i].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def write(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.attrs} for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
