"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files, around each call
into the library; nothing inside ``src/repro`` is instrumented.  They
are kept in memory and written out once, when the workload ends.

A span is ``[name, start, end, parent, request, tag]``: *start*/*end*
are seconds on the ``time.perf_counter`` clock relative to the
recorder's origin, *parent* is the index of the enclosing span (-1 for
a root), *request* is shared by all spans of one operation (-1 when the
span belongs to no request), and *tag* carries one short attribute such
as the source that served a read.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        request: int = -1,
        tag: str | None = None,
    ) -> int:
        """Record a span from timestamps already taken; returns its index."""
        self.spans.append(
            [name, start - self.origin, end - self.origin, parent, request, tag]
        )
        return len(self.spans) - 1

    def add_op(self, names: tuple[str, str, str], t0: float, t1: float, t2: float,
               request: int) -> None:
        """An operation *names[0]* from t0 to t2 with two consecutive
        children: *names[1]* until t1, *names[2]* after."""
        parent = self.add(names[0], t0, t2, -1, request)
        self.add(names[1], t0, t1, parent, request)
        self.add(names[2], t1, t2, parent, request)

    @contextmanager
    def span(self, name: str, parent: int = -1):
        start = time.perf_counter()
        index = self.add(name, start, start, parent)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter() - self.origin

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        """Durations (seconds) of every span called *name* (and tagged
        *tag*, when given)."""
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (tag is None or s[5] == tag)
        ]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part its
        child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump(
                {
                    **header,
                    "span_fields": [
                        "name", "start_s", "end_s", "parent", "request", "tag",
                    ],
                    "self_seconds": self.self_seconds(),
                    "spans": self.spans,
                },
                out,
            )
