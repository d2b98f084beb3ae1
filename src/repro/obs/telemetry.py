"""Request-scoped telemetry: W3C trace contexts over the one span store.

:mod:`repro.obs.tracer` answers "where did *this process* spend its time";
this module answers the production question the serving layer raises:
"where did *this request's* latency go?".  A request entering
:mod:`repro.serve` loses its identity the moment it is coalesced into a
batch — the batch's forward pass serves N requests at once — so wall-clock
spans keyed by thread stack cannot attribute queue wait, pad-row waste or
transform/GEMM time back to one caller.  Trace contexts can:

* every request carries a :class:`TraceContext` — a W3C ``traceparent``
  compatible ``(trace_id, span_id)`` pair, accepted and emitted as the
  ``traceparent`` HTTP header by ``repro.serve.service``;
* the context propagates through the scheduler into the executing worker
  thread (:func:`activate` sets a :mod:`contextvars` context), where every
  :func:`repro.obs.span` stamps explicit trace/parent ids on its record —
  no reliance on thread-stack nesting, so a span started on the event loop
  and finished on a worker still parents correctly;
* batch spans carry **fan-in links** to the N request spans they served
  (:meth:`~repro.obs.tracer.SpanRecord.add_link`), which
  :mod:`repro.obs.chrometrace` draws as flow events from every request row
  to the shared batch slice;
* :func:`record_span` adds the scheduler's after-the-fact request spans,
  and :func:`tree` reads a trace back out of the tracer's per-trace ring.

There is no separate switch or store: :func:`repro.obs.enable` turns
request traces on with everything else, and every span lands in the one
:class:`~repro.obs.tracer.Tracer`.

Clock: span times are ``time.perf_counter`` seconds.  :func:`record_span`
takes the scheduler's ``time.monotonic`` deadline-clock readings and shifts
them onto that clock, so retroactive request spans line up with the live
batch spans.
"""

from __future__ import annotations

import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .tracer import _CTX, SpanRecord, Tracer, enabled, get_tracer

__all__ = [
    "TraceContext",
    "current",
    "activate",
    "start_trace",
    "parse_traceparent",
    "record_span",
    "tree",
]


# --------------------------------------------------------------------------
# W3C trace context
# --------------------------------------------------------------------------

#: ``version-trace_id-span_id-flags``; version 00 is the only one defined.
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One ``(trace_id, span_id)`` position in a distributed trace."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value of this position."""
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    def child(self) -> "TraceContext":
        """A fresh span position within the same trace."""
        return TraceContext(self.trace_id, _new_span_id(), self.sampled)


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; ``None`` for absent/malformed values.

    Malformed headers are dropped rather than raised — a bad client header
    must never fail the request, it just starts a fresh trace.
    """
    if not header:
        return None
    m = _TRACEPARENT_RE.match(header.strip().lower())
    if m is None:
        return None
    version, trace_id, span_id, flags = m.groups()
    # Version ff and all-zero ids are invalid per the spec.
    if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id, span_id, bool(int(flags, 16) & 0x01))


def start_trace(traceparent: str | None = None) -> TraceContext:
    """Continue the trace named by ``traceparent`` or start a fresh one."""
    ctx = parse_traceparent(traceparent)
    if ctx is not None:
        return ctx.child()
    return TraceContext(_new_trace_id(), _new_span_id())


# --------------------------------------------------------------------------
# Context propagation + after-the-fact spans
# --------------------------------------------------------------------------


def current() -> TraceContext | None:
    """The calling context's trace position, if any."""
    return _CTX.get()


@contextmanager
def activate(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``ctx`` the active trace position for the ``with`` body."""
    token = _CTX.set(ctx)
    try:
        yield ctx
    finally:
        _CTX.reset(token)


#: ``time.monotonic`` -> ``time.perf_counter`` offset (both are steady
#: clocks, so one reading at import holds for the process).
_MONOTONIC_TO_SPAN_S = time.perf_counter() - time.monotonic()


def record_span(
    name: str,
    ctx: TraceContext | None,
    start_s: float,
    end_s: float,
    *,
    parent_id: str | None = None,
    root: bool = False,
    **attrs: Any,
) -> SpanRecord | None:
    """Record a span with explicit ``time.monotonic`` times.

    The scheduler's bookkeeping spans are known only once a request's
    outcome is, so they are recorded after the fact into the trace ring
    (not the thread-stack forest).  ``root=True`` makes the span *be*
    ``ctx``'s position (``span_id = ctx.span_id``) — the request's server
    span, which children recorded under ``ctx`` and links from batch spans
    both reference.  Otherwise the span is a fresh child of ``ctx``.
    """
    if not enabled() or ctx is None or not ctx.sampled:
        return None
    rec = SpanRecord(
        name=name,
        start_s=start_s + _MONOTONIC_TO_SPAN_S,
        end_s=end_s + _MONOTONIC_TO_SPAN_S,
        attrs=attrs,
        thread=threading.current_thread().name,
        trace_id=ctx.trace_id,
        span_id=ctx.span_id if root else _new_span_id(),
        parent_id=parent_id if root else (parent_id or ctx.span_id),
    )
    return get_tracer().record(rec)


# --------------------------------------------------------------------------
# Trace queries
# --------------------------------------------------------------------------


def tree(trace_id: str, tracer: Tracer | None = None) -> list[dict[str, Any]]:
    """The trace's spans nested by parentage (roots first, by time).

    Spans whose parent is not in the ring (the inbound client span, say)
    become roots — the tree never silently drops a span.
    """
    tracer = tracer if tracer is not None else get_tracer()
    spans = sorted(tracer.spans_of(trace_id), key=lambda s: s.start_s)
    nodes = {
        s.span_id: {
            "name": s.name,
            "trace_id": s.trace_id,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "start_s": s.start_s,
            "duration_ms": s.duration_s * 1e3,
            "attrs": dict(s.attrs),
            "thread": s.thread,
            "links": [list(link) for link in s.links],
            "children": [],
        }
        for s in spans
    }
    roots: list[dict[str, Any]] = []
    for s in spans:
        parent = nodes.get(s.parent_id) if s.parent_id else None
        (parent["children"] if parent is not None else roots).append(nodes[s.span_id])
    return roots
