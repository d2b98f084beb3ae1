"""Nestable wall-clock spans for the Im2col-Winograd pipeline.

The tracer answers the questions the paper answers with nvprof/Nsight:
where does a convolution spend its time (conv -> segments -> transform /
accumulate stages), and what did the planner/model decide along the way
(span *attributes*).  It is deliberately tiny:

* ``span(name, **attrs)`` is the only instrumentation call sites need; it
  nests via a per-thread stack and records ``time.perf_counter`` intervals.
* Tracing is **off by default**.  When disabled, ``span()`` returns a shared
  no-op context manager without touching the tracer — hot paths pay one
  module-global check, which is what keeps the instrumented kernels within
  the < 2% overhead budget.  :func:`enable` is the only switch: it turns on
  spans, metrics and request traces together.
* Under an active trace context (:mod:`repro.obs.telemetry`) a span also
  carries W3C ``trace_id``/``span_id``/``parent_id`` ids, becomes the
  context for its body, and is indexed by trace id in the tracer's bounded
  per-trace ring — so one request can be followed from the HTTP front into
  the batch's per-stage spans, even across executor threads.
* The recorded spans export to Chrome-trace JSON
  (:mod:`repro.obs.chrometrace`) and to an indented text summary
  (:mod:`repro.obs.summary`).

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("conv2d", ow=49, alpha=8):
        ...
    print(obs.get_tracer().summary())
    obs.write_chrome_trace("trace.json")
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - telemetry imports this module
    from .telemetry import TraceContext

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "enable",
    "disable",
    "enabled",
    "capture",
    "get_tracer",
    "reset",
]

#: Module-level enable flag.  Read directly by the hot-path guard in
#: :func:`span`; flipped only by :func:`enable` / :func:`disable`.
_ENABLED = False


def enable() -> None:
    """Turn spans, metrics and request traces on."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn all instrumentation off (the default)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


#: The active trace position (a :class:`repro.obs.telemetry.TraceContext`).
#: A ``ContextVar`` propagates through awaits on the event loop and is
#: per-thread elsewhere; :func:`repro.obs.telemetry.activate` hops it into
#: executor threads explicitly.
_CTX: contextvars.ContextVar["TraceContext | None"] = contextvars.ContextVar(
    "repro_trace_ctx", default=None
)


@dataclass
class SpanRecord:
    """One completed (or in-flight) span.

    Times are ``time.perf_counter`` seconds; the tracer's ``origin_s`` turns
    them into trace-relative timestamps at export time.  The trace fields
    stay ``None`` unless the span was recorded under a sampled trace
    context.
    """

    name: str
    start_s: float
    end_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)
    tid: int = 0
    #: Recording thread's name.  OS thread idents are recycled (a restarted
    #: serve execute worker reuses them), so the Chrome-trace exporter keys
    #: its rows on ``(tid, thread)`` and labels them with this name — one
    #: readable row per worker instead of interleaved anonymous ids.  A
    #: ``tid`` of 0 marks a span recorded after the fact
    #: (:func:`repro.obs.telemetry.record_span`), which sits on no stack.
    thread: str = ""
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    #: Fan-in links to spans in *other* traces as ``(trace_id, span_id)``
    #: pairs — how a batch span names the N request spans it served.
    links: list[tuple[str, str]] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    @property
    def self_s(self) -> float:
        """Duration minus the time spent in direct children."""
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))

    def set(self, **attrs: Any) -> "SpanRecord":
        """Attach attributes after entry (e.g. results known only at exit)."""
        self.attrs.update(attrs)
        return self

    def add_link(self, trace_id: str, span_id: str) -> "SpanRecord":
        self.links.append((trace_id, span_id))
        return self


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled.

    A singleton: the disabled fast path allocates nothing and records
    nothing.  ``set`` is accepted (and ignored) so call sites need no
    enabled/disabled branches of their own.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_link(self, trace_id: str, span_id: str) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Records a forest of :class:`SpanRecord` trees, one stack per thread.

    Traced spans are also indexed by trace id in a ring that keeps the
    spans of the most recent :attr:`max_traces` traces (oldest trace
    evicted whole) — the lookup request trees and the load generator's
    server-side split read.
    """

    #: Traces the per-trace ring retains.  A fixed bound, not an option:
    #: the forest's :meth:`set_root_limit` is the one retention knob.
    max_traces = 512

    def __init__(self, *, max_roots: int | None = None) -> None:
        self.roots: list[SpanRecord] = []
        self._stacks: dict[int, list[SpanRecord]] = {}
        self._traces: "OrderedDict[str, list[SpanRecord]]" = OrderedDict()
        self._lock = threading.Lock()
        self.origin_s = time.perf_counter()
        #: Optional bound on retained root spans: long-running servers
        #: record indefinitely, so the serve telemetry path caps the forest
        #: and drops the oldest completed roots (see :meth:`set_root_limit`).
        self.max_roots = max_roots

    def reset(self) -> None:
        """Drop all recorded spans and restart the time origin."""
        with self._lock:
            self.roots.clear()
            self._stacks.clear()
            self._traces.clear()
            self.origin_s = time.perf_counter()

    def set_root_limit(self, max_roots: int | None) -> None:
        """Bound (or unbound, with ``None``) the retained root-span count."""
        if max_roots is not None and max_roots < 1:
            raise ValueError(f"max_roots must be >= 1 or None, got {max_roots}")
        with self._lock:
            self.max_roots = max_roots
            self._enforce_root_limit()

    def _enforce_root_limit(self) -> None:
        """Drop oldest completed roots beyond the cap (caller holds lock)."""
        if self.max_roots is None:
            return
        while len(self.roots) > self.max_roots:
            for i, rec in enumerate(self.roots):
                if rec.end_s:  # never drop an in-flight root
                    del self.roots[i]
                    break
            else:
                break

    def _index(self, trace_id: str, rec: SpanRecord) -> None:
        """File a traced span under its trace id (caller holds lock)."""
        spans = self._traces.get(trace_id)
        if spans is None:
            spans = self._traces[trace_id] = []
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
        spans.append(rec)

    def record(self, rec: SpanRecord) -> SpanRecord:
        """Index an after-the-fact traced span (it joins no thread stack)."""
        if rec.trace_id is None:
            raise ValueError(f"span {rec.name!r} carries no trace id")
        with self._lock:
            self._index(rec.trace_id, rec)
        return rec

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Record one nested span around the ``with`` body.

        Under a sampled trace context the span takes a fresh span id as a
        child of that context and is the context for the body.
        """
        tid = threading.get_ident()
        rec = SpanRecord(
            name=name,
            start_s=time.perf_counter(),
            attrs=dict(attrs),
            tid=tid,
            thread=threading.current_thread().name,
        )
        ctx = _CTX.get()
        token = None
        if ctx is not None and ctx.sampled:
            child = ctx.child()
            rec.trace_id, rec.span_id, rec.parent_id = (
                ctx.trace_id, child.span_id, ctx.span_id
            )
            token = _CTX.set(child)
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            (stack[-1].children if stack else self.roots).append(rec)
            stack.append(rec)
            if len(stack) == 1:
                self._enforce_root_limit()
            if rec.trace_id is not None:
                self._index(rec.trace_id, rec)
        try:
            yield rec
        finally:
            rec.end_s = time.perf_counter()
            if token is not None:
                _CTX.reset(token)
            with self._lock:
                stack = self._stacks.get(tid, [])
                if stack and stack[-1] is rec:
                    stack.pop()

    def spans_of(self, trace_id: str) -> list[SpanRecord]:
        """The ring's spans of one trace, in recording order."""
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def trace_ids(self) -> list[str]:
        """Trace ids the ring holds, oldest first."""
        with self._lock:
            return list(self._traces)

    def snapshot_roots(self) -> list[SpanRecord]:
        """Locked copy of the root list for export-side iteration.

        The serve execute worker and concurrent callers append roots at
        once; exporters must not walk ``self.roots`` while it resizes under
        them.  The records themselves are shared (an in-flight span's
        children may still grow), which is fine for the append-only tree
        shape the exporters read.
        """
        with self._lock:
            return list(self.roots)

    def iter_spans(self) -> Iterator[tuple[SpanRecord, int]]:
        """All spans depth-first as ``(record, depth)``."""
        stack = [(r, 0) for r in reversed(self.snapshot_roots())]
        while stack:
            rec, depth = stack.pop()
            yield rec, depth
            stack.extend((c, depth + 1) for c in reversed(rec.children))

    def span_count(self) -> int:
        return sum(1 for _ in self.iter_spans())

    def summary(self, **kw: Any) -> str:
        """Human-readable indented tree (see :mod:`repro.obs.summary`)."""
        from .summary import render_tree

        return render_tree(self, **kw)


#: Process-wide tracer used by :func:`span` and the convenience exporters.
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _GLOBAL


def span(name: str, **attrs: Any):
    """Record a span on the global tracer; no-op singleton when disabled."""
    if not _ENABLED:
        return NULL_SPAN
    return _GLOBAL.span(name, **attrs)


def reset() -> None:
    """Clear the global tracer (the metrics registry has its own reset)."""
    _GLOBAL.reset()


@contextmanager
def capture(fresh: bool = True) -> Iterator[Tracer]:
    """Enable tracing for a scope; restores the previous flag on exit.

    ``fresh`` resets the global tracer (its forest and its per-trace ring)
    and the metrics registry first, so the scope observes only its own
    activity.
    """
    from .metrics import get_registry

    prev = _ENABLED
    if fresh:
        _GLOBAL.reset()
        get_registry().reset()
    enable()
    try:
        yield _GLOBAL
    finally:
        if not prev:
            disable()
