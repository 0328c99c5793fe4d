"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded by the benchmark around the calls it makes into a
layer, never inside the program.  A span is ``(name, start, end,
parent, op)``; a layer's self time is its span minus the part its
children cover.  The recorder keeps everything in memory and writes one
Chrome-trace file when the workload ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "track")

    def __init__(
        self, name: str, start: float, parent: Optional[int], op: int, track: int = 1
    ):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: Chrome-trace thread row; nested spans share row 1.
        self.track = track

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Nested spans on one thread (the benchmark's load is one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int = -1) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if op < 0 and parent is not None:
            op = self.spans[parent].op
        record = Span(name, time.perf_counter(), parent, op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: int, track: int) -> None:
        """Record a span whose endpoints the caller took: the TCP
        client's concurrent ops overlap, so they cannot nest on the
        recorder's stack and each in-flight slot gets its own row."""
        record = Span(name, start, None, op, track)
        record.end = end
        self.spans.append(record)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its direct children's."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: Dict[str, List[float]] = {}
        for s, c in zip(self.spans, covered):
            out.setdefault(s.name, []).append(max(0.0, s.duration - c))
        return out

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """``chrome://tracing`` / Perfetto JSON: one complete event per span."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": process_name},
            }
        ]
        for i, s in enumerate(self.spans):
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": s.track,
                    "ts": (s.start - origin) * 1e6,
                    "dur": s.duration * 1e6,
                    "args": {"op": s.op, "span": i, "parent": s.parent},
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
            fh.write("\n")


def timed(rec: Optional[Recorder], name: str, fn, *args, **kwargs):
    """``(seconds, fn(*args, **kwargs))``; recorded as a span when
    ``rec`` is given, a bare pair of clock reads in the untraced pass."""
    if rec is None:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - start, result
    with rec.span(name) as record:
        result = fn(*args, **kwargs)
    return record.duration, result
