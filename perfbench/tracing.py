"""In-memory spans for the traced benchmark run.

A span records name, start, end, parent span and operation id.  Spans
stay in memory and are written out once, when the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "op": s.op,
            }
            for s in self.spans
        ]


def self_times_ns(spans: list[Span]) -> list[int]:
    """Self time of every span: its duration minus what its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(i, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration_ns - covered)
    return out


def self_time_by_module(spans: list[Span], skip_ops=()) -> dict[str, int]:
    totals: dict[str, int] = {}
    for s, own in zip(spans, self_times_ns(spans)):
        if s.op in skip_ops:
            continue
        totals[s.module] = totals.get(s.module, 0) + own
    return totals

