"""In-memory spans recorded by the benchmark around its calls into each layer.

A span has a name, start, end, parent and an optional request id; the spans
of one request share its id.  Spans stay in memory while the workload runs
and are written once, at the end, as Chrome-trace JSON (open it in Perfetto
or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

#: Spans kept per run; later spans are counted as dropped, not stored.
SPAN_LIMIT = 300_000


class Recorder:
    """Thread-safe span store with a per-thread stack for nesting."""

    def __init__(self, limit: int = SPAN_LIMIT) -> None:
        self._spans: list[list] = []  # [name, t0, t1, parent, rid, tid]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._limit = limit
        self.dropped = 0
        self.origin = time.perf_counter()

    def add(
        self, name: str, t0: float, t1: float, *, parent: int | None = None, rid: object = None
    ) -> int | None:
        """Record a finished span; returns its id (``None`` once over the limit)."""
        with self._lock:
            if len(self._spans) >= self._limit:
                self.dropped += 1
                return None
            self._spans.append([name, t0, t1, parent, rid, threading.get_ident()])
            return len(self._spans) - 1

    def begin(self, name: str, *, rid: object = None) -> int | None:
        """Open a span whose parent is this thread's innermost open span."""
        stack = self._stack()
        idx = self.add(name, time.perf_counter(), 0.0, parent=stack[-1] if stack else None, rid=rid)
        stack.append(idx)
        return idx

    def end(self, idx: int | None) -> None:
        """Close the span :meth:`begin` opened."""
        self._stack().pop()
        if idx is not None:
            self._spans[idx][2] = time.perf_counter()

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write(self, path: Path) -> Path:
        """Write every span as Chrome-trace complete ("X") events."""
        with self._lock:
            spans = list(self._spans)
        events = []
        for i, (name, t0, t1, parent, rid, tid) in enumerate(spans):
            args: dict[str, object] = {"id": i}
            if parent is not None:
                args["parent"] = parent
            if rid is not None:
                args["rid"] = rid
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (t0 - self.origin) * 1e6,
                    "dur": max(0.0, t1 - t0) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"dropped": self.dropped}}
        path.write_text(json.dumps(doc))
        return path
