"""In-memory spans recorded around calls into the package.

A span holds its name, start, end, parent span and an item count (the
boards or results a batched call handled). Spans are only kept while
the tracer is enabled; a disabled tracer hands out one shared no-op
span, so the untraced run executes the same benchmark code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    items = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Span:
    __slots__ = ("tracer", "id", "parent", "name", "start", "end", "items")

    def __init__(self, tracer: "Tracer", name: str, items: int):
        self.tracer = tracer
        self.name = name
        self.items = items
        self.parent = tracer._stack[-1].id if tracer._stack else None
        self.id = tracer._next_id
        tracer._next_id += 1
        self.start = self.end = 0.0

    def __enter__(self):
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(self)
        return False

    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool, clock):
        self.enabled = enabled
        self.clock = clock  # the clock.Clock whose steps lap() ends
        self.spans: list[Span] = []
        self.values: dict[str, float] = {}
        self._stack: list[Span] = []
        self._next_id = 0

    def span(self, name: str, items: int = 0):
        """Context manager timing one call (or one batch of calls)."""
        return Span(self, name, items) if self.enabled else _NULL

    def lap(self) -> None:
        """End a timed step of the clock. Units call it between calls
        into the package; its kernel sample gets a span of its own, so
        that no layer's self time holds it."""
        with self.span("clock.reference"):
            self.clock.lap()

    def value(self, name: str, value: float) -> None:
        """Record a number measured elsewhere, such as a check's seconds."""
        if self.enabled:
            self.values[name] = value

    def has(self, name: str) -> bool:
        return any(s.name == name for s in self.spans) or name in self.values

    def total(self, name: str) -> tuple[float, int]:
        """(seconds, items) summed over every span with this name."""
        secs = items = 0
        for s in self.spans:
            if s.name == name:
                secs += s.seconds()
                items += s.items
        return secs, items

    def self_times(self, root: str) -> dict[str, float]:
        """Self time per layer under the named root span.

        A span's self time is its duration minus the time its direct
        children cover; a layer is the span name up to the first dot.
        """
        ids = {s.id for s in self.spans if s.name == root}
        by_id = {s.id: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            p = s.id
            while p is not None and p not in ids:
                p = by_id[p].parent
            if p is None:
                continue
            out[s.name.split(".")[0]] += s.seconds() - child_time[s.id]
        return dict(sorted(out.items()))

    def dump(self, path, meta: dict) -> None:
        """Write every span, value and the run metadata as JSON."""
        spans = [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "items": s.items,
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "values": self.values, "spans": spans}, fh)
