"""Chrome-trace-format export (``chrome://tracing`` / Perfetto loadable).

Emits the JSON object format of the Trace Event specification:

* every :class:`~repro.obs.tracer.SpanRecord` of the one store becomes
  one complete (``"ph": "X"``) event with microsecond ``ts``/``dur``
  relative to the tracer's time origin and its attributes (plus
  ``trace_id``/``span_id`` when traced) under ``args``.  Runtime spans
  nest on one named row per recording thread; the scheduler's
  after-the-fact request spans get one named row per request trace
  (``request <trace id prefix>``);
* every fan-in link (a batch span naming the request spans it served)
  becomes a ``s``/``f`` flow-event pair — the arrow Perfetto draws from
  each request row to the shared batch slice;
* every counter/gauge in the metrics registry becomes one counter
  (``"ph": "C"``) event stamped at the end of the trace, one series per
  label set (histograms export their sum, which Perfetto can still plot);
* process/thread-name metadata events label the timeline.

The output round-trips through :mod:`repro.obs.report`, which rebuilds the
span hierarchy purely from the ``ts``/``dur`` containment — the same way
Perfetto nests slices — so the CLI agrees with the UI by construction.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry, label_string
from .tracer import SpanRecord, Tracer, get_tracer

__all__ = ["chrome_trace", "write_chrome_trace", "SCHEMA_VERSION"]

#: Bumped when the exported structure changes; stored under ``otherData``.
SCHEMA_VERSION = 1


#: Row key of a span: ``(thread ident, label)``.  After-the-fact request
#: spans sit on no thread's stack (ident 0) and share one row per trace.
_RowKey = tuple[int, str]


def _row_key(rec: SpanRecord) -> _RowKey:
    if rec.tid == 0 and rec.trace_id is not None:
        return (0, f"request {rec.trace_id[:8]}")
    return (rec.tid, rec.thread)


def _collect_spans(tracer: Tracer) -> list[SpanRecord]:
    """The one store's spans: the forest depth-first, then the traced spans
    only the per-trace ring still holds (request spans recorded after the
    fact, and forest roots a bound has since dropped)."""
    spans = [rec for rec, _ in tracer.iter_spans()]
    seen = {id(rec) for rec in spans}
    for trace_id in tracer.trace_ids():
        for rec in tracer.spans_of(trace_id):
            if id(rec) not in seen:
                seen.add(id(rec))
                spans.append(rec)
    return spans


def _stable_rows(spans: list[SpanRecord]) -> dict[_RowKey, int]:
    """Stable, small ``tid`` per row, in first-seen span order (main first).

    Raw OS idents are unfit as rows: executor pools recycle them across
    restarts, so spans from *different* worker generations interleave into
    one unreadable row.  Keying on the thread name as well splits those
    generations, and numbering rows in first-seen span order keeps the
    layout stable across exports of the same trace.
    """
    main = threading.main_thread()
    rows: dict[_RowKey, int] = {(main.ident or 0, main.name): 0}
    for rec in spans:
        rows.setdefault(_row_key(rec), len(rows))
    return rows


def _span_events(
    spans: list[SpanRecord], origin: float, pid: int, rows: dict[_RowKey, int]
) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = []
    for rec in spans:
        end = rec.end_s if rec.end_s else rec.start_s
        args = {k: _jsonable(v) for k, v in rec.attrs.items()}
        if rec.trace_id is not None:
            args.update(trace_id=rec.trace_id, span_id=rec.span_id)
        events.append(
            {
                "name": rec.name,
                "cat": "span",
                "ph": "X",
                "ts": (rec.start_s - origin) * 1e6,
                "dur": max(0.0, end - rec.start_s) * 1e6,
                "pid": pid,
                "tid": rows[_row_key(rec)],
                "args": args,
            }
        )
    return events


def _flow_events(
    spans: list[SpanRecord], origin: float, pid: int, rows: dict[_RowKey, int]
) -> list[dict[str, Any]]:
    """One ``s`` (at the linked request span) and one ``f`` (at the linking
    batch span) per fan-in link, sharing a flow id; dangling links drop."""
    by_id = {(rec.trace_id, rec.span_id): rec for rec in spans if rec.trace_id}
    events: list[dict[str, Any]] = []
    for rec in spans:
        for trace_id, span_id in rec.links:
            target = by_id.get((trace_id, span_id))
            if target is None:
                continue
            flow = {"name": "serve.fanin", "cat": "link", "id": int(span_id[:15], 16)}
            events.append(
                {
                    **flow,
                    "ph": "s",
                    "ts": (target.start_s - origin) * 1e6,
                    "pid": pid,
                    "tid": rows[_row_key(target)],
                }
            )
            events.append(
                {
                    **flow,
                    "ph": "f",
                    "bp": "e",
                    "ts": (rec.start_s - origin) * 1e6,
                    "pid": pid,
                    "tid": rows[_row_key(rec)],
                }
            )
    return events


def _metric_events(registry: MetricsRegistry, pid: int, ts_us: float) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = []
    for name in registry.names():
        metric = registry.get(name)
        series: dict[str, float] = {}
        if isinstance(metric, (Counter, Gauge)):
            for key, value in metric._items():
                series[label_string(key) or "value"] = value
        elif isinstance(metric, Histogram):
            for key, summary in metric._items():
                series[label_string(key) or "value"] = summary["sum"]
        if series:
            events.append(
                {
                    "name": name,
                    "cat": "metric",
                    "ph": "C",
                    "ts": ts_us,
                    "pid": pid,
                    "args": series,
                }
            )
    return events


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def chrome_trace(
    tracer: Tracer | None = None, registry: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Build the Chrome-trace JSON object for a tracer (+ optional metrics)."""
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    pid = os.getpid()
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": "repro (Im2col-Winograd)"},
        }
    ]
    spans = _collect_spans(tracer)
    rows = _stable_rows(spans)
    span_events = _span_events(spans, tracer.origin_s, pid, rows)
    for (_ident, tname), tid in rows.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": tname or f"thread-{tid}"},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    events.extend(span_events)
    events.extend(_flow_events(spans, tracer.origin_s, pid, rows))
    end_ts = max((e["ts"] + e["dur"] for e in span_events), default=0.0)
    events.extend(_metric_events(registry, pid, end_ts))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "schema_version": SCHEMA_VERSION,
            "metrics": registry.as_dict(),
        },
    }


def write_chrome_trace(
    path: str | os.PathLike[str],
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> str:
    """Serialise :func:`chrome_trace` to ``path``; returns the path written."""
    doc = chrome_trace(tracer, registry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return str(path)
