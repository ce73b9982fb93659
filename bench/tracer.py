"""In-memory span recorder for the benchmark's traced runs.

A span is one call into the program, recorded from the benchmark's side
of the boundary: name, item id, parent span, start and end in
nanoseconds. Spans stay in a list until the run writes them out. A
disabled tracer hands out one shared null context, so the untraced
passes run the same code with next to no added cost.
"""

from __future__ import annotations

import contextlib
import time

_NULL = contextlib.nullcontext()


class Tracer:
    __slots__ = ("enabled", "spans", "_open")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        # Each record is [name, item, parent index or -1, start_ns, end_ns].
        self.spans: list[list] = []
        self._open = -1

    def span(self, name: str, item=None):
        return _Span(self, name, item) if self.enabled else _NULL

    def self_times(self, first: int = 0) -> list[int]:
        """Self time of every span from index ``first`` on: its duration
        minus the durations of its direct children."""
        spans = self.spans
        own = [end - start for _, _, _, start, end in spans[first:]]
        for name, item, parent, start, end in spans[first:]:
            if parent >= first:
                own[parent - first] -= end - start
        return own

    def check(self, first: int = 0) -> None:
        """Raise unless spans from ``first`` on are closed, children lie
        inside their parents, siblings do not overlap, and the self times
        add up to the total of the top-level spans."""
        spans = self.spans[first:]
        last_child_end: dict[int, int] = {}
        for name, item, parent, start, end in spans:
            if end < start:
                raise AssertionError(f"span {name} {item} is not closed")
            if parent >= first:
                _, _, _, p_start, p_end = self.spans[parent]
                if start < p_start or end > p_end:
                    raise AssertionError(f"span {name} {item} leaves its parent")
                if start < last_child_end.get(parent, p_start):
                    raise AssertionError(f"span {name} {item} overlaps a sibling")
                last_child_end[parent] = end
        total = sum(end - start for _, _, parent, start, end in spans if parent < first)
        own = self.self_times(first)
        if sum(own) != total or min(own, default=0) < 0:
            raise AssertionError("span self times do not add up to the traced total")


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: Tracer, name: str, item) -> None:
        self._tracer = tracer
        self._record = [name, item, -1, 0, 0]

    def __enter__(self) -> None:
        tracer, record = self._tracer, self._record
        record[2] = tracer._open
        tracer._open = len(tracer.spans)
        tracer.spans.append(record)
        record[3] = time.perf_counter_ns()

    def __exit__(self, *exc) -> bool:
        record = self._record
        record[4] = time.perf_counter_ns()
        self._tracer._open = record[2]
        return False
