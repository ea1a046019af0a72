"""In-memory spans recorded around the benchmark's calls into catmigrate.

A span has a name, a start and an end (``perf_counter_ns``), the index of the
span that encloses it, and the job it belongs to.  Spans stay in memory and
are written out with the run record when the run ends.  ``NullTracer`` is the
untraced run's stand-in: its spans record nothing.
"""
from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    job: int


class _Open:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else None
        self.index = len(tracer.spans)
        tracer.spans.append(Span(self.name, time.perf_counter_ns(), 0, parent, tracer.job))
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index].end = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1

    def span(self, name: str) -> _Open:
        return _Open(self, name)


class _Nothing:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOTHING = _Nothing()


class NullTracer:
    job = -1

    def span(self, name: str) -> _Nothing:
        return _NOTHING
