"""Operation timing and the optional span trace.

Every operation the benchmark times goes through :meth:`Recorder.span`,
which always measures the wall time (the end-to-end metrics need it). With
tracing on, it also keeps a span record in memory: name, start, end, the
enclosing span, and a request id for queries. Spans are written to a file
only when the run ends, and the time the recorder spends on its own
bookkeeping is summed so the traced run can report its overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Timing:
    """Result slot of one :meth:`Recorder.span`: ``secs`` is set on exit."""

    __slots__ = ("secs",)

    def __init__(self) -> None:
        self.secs = 0.0


class Recorder:
    def __init__(self, trace: bool, t0: float):
        self.trace = trace
        self.t0 = t0
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str, rid: int | None = None):
        b0 = time.perf_counter()
        idx = -1
        if self.trace:
            idx = len(self.spans)
            self.spans.append({
                "name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "rid": rid})
            self._stack.append(idx)
        out = Timing()
        start = time.perf_counter()
        self.overhead_s += start - b0
        try:
            yield out
        finally:
            end = time.perf_counter()
            out.secs = end - start
            if idx >= 0:
                rec = self.spans[idx]
                rec["start"] = round(start - self.t0, 6)
                rec["end"] = round(end - self.t0, 6)
                self._stack.pop()
                self.overhead_s += time.perf_counter() - end

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans}, f)
