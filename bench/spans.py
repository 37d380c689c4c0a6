"""The harness's own span recorder.

Spans are recorded from outside the program, around calls into its
public functions: name, start, end, the span that caused it (parent)
and the op it belongs to.  They stay in memory and are written out only
when the run ends.  A span's *self time* is its duration minus the part
its child spans cover, so a layer's ``busy`` never counts time spent in
a layer it called.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into SpanRecorder.spans, -1 for a root
        self.op = op
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class SpanRecorder:
    """Records nested spans; ``enabled=False`` makes ``span`` a no-op
    so the same code path can be timed with and without tracing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        if op is not None:
            self.op = op
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, perf_counter(), parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            # an op abandoned at its limit unwinds through here, which
            # closes every span it left open at the moment of the limit
            record.end = perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += record.duration_s

    def write(self, path: str, append: bool = False) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "a" if append else "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "name": record.name,
                    "start_s": record.start - origin,
                    "end_s": record.end - origin,
                    "parent": record.parent,
                    "op": record.op,
                }) + "\n")
