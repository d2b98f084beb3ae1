"""Process-wide metrics: named counters, gauges and histograms with labels.

The registry holds the quantities the paper argues with: flops and gathered
bytes (§6.1.1's Gflop/s numerator and the fused gather volume), tiles and
segments (§5.5's boundary split), GEMM-tail columns, SMEM transaction phases
(§5.2), modeled occupancy and predicted nanoseconds (Figures 8/9).

Three instrument kinds, Prometheus-flavoured but dependency-free:

* :class:`Counter` — monotonically increasing totals (``inc``),
* :class:`Gauge` — last-write-wins values (``set``),
* :class:`Histogram` — streaming count/sum/min/max summaries (``observe``).

Each instrument keys its values by a **label set** (sorted kwarg items), so
``counter("winograd.segments").inc(kernel="Gamma_8(6,3)")`` and the same
counter with a different kernel aggregate separately while sharing one name.

Like the tracer, collection is gated on :func:`repro.obs.tracer.enabled`;
the module-level helpers (:func:`counter_add`, :func:`gauge_set`,
:func:`observe`) are no-ops while disabled.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from typing import Any, Callable, Iterator

from .tracer import enabled

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedHistogram",
    "DEFAULT_LOG_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "counter_add",
    "gauge_set",
    "observe",
    "observe_windowed",
    "metrics_json",
]

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def label_string(key: LabelKey) -> str:
    """``k=v,k2=v2`` rendering used in exports; empty string for no labels."""
    return ",".join(f"{k}={v}" for k, v in key)


class _Metric:
    """Shared naming/label plumbing for the three instrument kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def _items(self) -> Iterator[tuple[LabelKey, Any]]:  # pragma: no cover
        raise NotImplementedError

    def as_dict(self) -> dict[str, Any]:
        """JSON-able export: one entry per label set."""
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value} for key, value in self._items()
            ],
        }


class Counter(_Metric):
    """Monotonic total per label set.

    Increments are lock-guarded: the serve execute worker, the event loop
    and concurrent callers all call :func:`counter_add`, and an unguarded
    read-modify-write would silently drop concurrent increments.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {value})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Value for one label set (0 if never incremented)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        with self._lock:
            return sum(self._values.values())

    def _items(self) -> Iterator[tuple[LabelKey, float]]:
        # Snapshot under the lock, yield outside it: a generator that held a
        # non-reentrant lock across yields would deadlock any consumer that
        # touches the instrument mid-iteration.
        with self._lock:
            items = sorted(self._values.items())
        yield from items


class Gauge(_Metric):
    """Last-written value per label set.

    Sets are lock-guarded like :class:`Counter` increments: ``gauge_set``
    runs on the serve execute worker and on concurrent callers, and exports
    must not read a dict that is being resized under them.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: Any) -> float | None:
        with self._lock:
            return self._values.get(_label_key(labels))

    def _items(self) -> Iterator[tuple[LabelKey, float]]:
        with self._lock:
            items = sorted(self._values.items())
        yield from items


class Histogram(_Metric):
    """Streaming summary (count/sum/min/max/mean) per label set.

    Observations are lock-guarded for the same reason as :class:`Counter`:
    samples may arrive from the serve execute worker, the event loop and
    concurrent callers at once.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, dict[str, float]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            s = self._values.get(key)
            if s is None:
                self._values[key] = {"count": 1, "sum": value, "min": value, "max": value}
            else:
                s["count"] += 1
                s["sum"] += value
                s["min"] = min(s["min"], value)
                s["max"] = max(s["max"], value)

    def summary(self, **labels: Any) -> dict[str, float] | None:
        with self._lock:
            s = self._values.get(_label_key(labels))
            if s is None:
                return None
            return {**s, "mean": s["sum"] / s["count"]}

    def _items(self) -> Iterator[tuple[LabelKey, dict[str, float]]]:
        # Snapshot (with the derived mean baked in) under the lock, yield
        # outside it — see Counter._items for why.
        with self._lock:
            items = []
            for key in sorted(self._values):
                s = self._values[key]
                items.append((key, {**s, "mean": s["sum"] / s["count"]}))
        yield from items


#: Log2-spaced bucket upper edges covering sub-millisecond transform spans
#: through multi-second tail latencies (values are milliseconds for the
#: ``*.latency_ms``-style series this was built for, but the edges are
#: unit-agnostic).  Geometric spacing keeps relative quantile error bounded
#: (one bucket = one octave) with a fixed, small bucket count.
DEFAULT_LOG_BUCKETS: tuple[float, ...] = tuple(0.25 * 2**i for i in range(17))


class WindowedHistogram(Histogram):
    """Log-bucketed histogram with a sliding-window quantile view.

    Two simultaneous views of the same stream of observations:

    * **cumulative** — per-bucket counts, sum and count since process
      start.  These only ever increase, which is what the Prometheus
      ``/metrics`` exposition requires of ``_bucket``/``_sum``/``_count``
      samples (rate math happens server-side);
    * **windowed** — the same bucket counts over only the last
      ``window_s`` seconds, kept as a ring of ``slices`` rotating
      sub-windows (a coarse t-digest substitute), from which
      :meth:`quantile` answers "p99 over the last minute" — the question a
      cumulative-only histogram fundamentally cannot, since an hour of
      history drowns the last minute's regression.

    The streaming ``count/sum/min/max`` surface of :class:`Histogram` is
    preserved (cumulative), so every existing consumer — ``as_dict``,
    Chrome-trace counter export, ``obs.report`` — keeps working.
    """

    kind = "windowed_histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        window_s: float = 60.0,
        slices: int = 6,
        buckets: tuple[float, ...] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(name, help)
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if slices < 1:
            raise ValueError(f"slices must be >= 1, got {slices}")
        self.window_s = float(window_s)
        self.slices = slices
        self.bucket_edges: tuple[float, ...] = tuple(
            buckets if buckets is not None else DEFAULT_LOG_BUCKETS
        )
        if list(self.bucket_edges) != sorted(self.bucket_edges):
            raise ValueError("bucket edges must be sorted ascending")
        self._clock = clock
        self._slice_s = self.window_s / self.slices
        # Per label key: cumulative per-bucket counts (len(edges) + 1, the
        # last slot is the +Inf overflow) and the ring of window slices
        # [(slice_start_s, per-bucket counts, count, sum), ...].
        self._buckets: dict[LabelKey, list[int]] = {}
        self._window: dict[LabelKey, list[list[Any]]] = {}

    # -- recording -----------------------------------------------------------

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        idx = bisect.bisect_left(self.bucket_edges, value)
        now = self._clock()
        with self._lock:
            s = self._values.get(key)
            if s is None:
                self._values[key] = {"count": 1, "sum": value, "min": value, "max": value}
            else:
                s["count"] += 1
                s["sum"] += value
                s["min"] = min(s["min"], value)
                s["max"] = max(s["max"], value)
            counts = self._buckets.get(key)
            if counts is None:
                counts = self._buckets[key] = [0] * (len(self.bucket_edges) + 1)
            counts[idx] += 1
            ring = self._window.setdefault(key, [])
            self._rotate(ring, now)
            ring[-1][1][idx] += 1
            ring[-1][2] += 1
            ring[-1][3] += value

    def _rotate(self, ring: list[list[Any]], now: float) -> None:
        """Drop slices older than the window; open a new slice if due."""
        horizon = now - self.window_s
        while ring and ring[0][0] + self._slice_s <= horizon:
            ring.pop(0)
        if not ring or now - ring[-1][0] >= self._slice_s:
            ring.append([now, [0] * (len(self.bucket_edges) + 1), 0, 0.0])

    # -- cumulative view (Prometheus) ----------------------------------------

    def bucket_counts(self, **labels: Any) -> list[int]:
        """All-time per-bucket counts (last slot = over the largest edge)."""
        with self._lock:
            counts = self._buckets.get(_label_key(labels))
            return list(counts) if counts else [0] * (len(self.bucket_edges) + 1)

    # -- windowed view -------------------------------------------------------

    def _window_counts(self, key: LabelKey) -> tuple[list[int], int, float]:
        now = self._clock()
        horizon = now - self.window_s
        merged = [0] * (len(self.bucket_edges) + 1)
        count, total = 0, 0.0
        with self._lock:
            for start, counts, n, s in self._window.get(key, ()):
                if start + self._slice_s <= horizon:
                    continue
                for i, c in enumerate(counts):
                    merged[i] += c
                count += n
                total += s
        return merged, count, total

    def window_summary(self, **labels: Any) -> dict[str, float]:
        """``{count, sum, mean}`` over the sliding window."""
        _, count, total = self._window_counts(_label_key(labels))
        return {"count": count, "sum": total, "mean": total / count if count else 0.0}

    def quantile(self, q: float, **labels: Any) -> float:
        """Windowed quantile estimate (``q`` in [0, 1]), 0.0 when empty.

        Nearest-rank over the window's log buckets with linear
        interpolation inside the winning bucket; values beyond the largest
        edge report the all-time max (the only upper bound we track).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        key = _label_key(labels)
        merged, count, _ = self._window_counts(key)
        if count == 0:
            return 0.0
        rank = max(1, int(-(-q * count // 1)))  # ceil(q * count), >= 1
        seen = 0
        for i, c in enumerate(merged):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = self.bucket_edges[i - 1] if i > 0 else 0.0
                if i >= len(self.bucket_edges):
                    with self._lock:
                        s = self._values.get(key)
                        top = float(s["max"]) if s else lo
                    return top
                hi = self.bucket_edges[i]
                frac = (rank - seen) / c
                return lo + (hi - lo) * frac
            seen += c
        return float(self.bucket_edges[-1])  # pragma: no cover - rank <= count

    # -- export --------------------------------------------------------------

    def _items(self) -> Iterator[tuple[LabelKey, dict[str, float]]]:
        for key, summary in super()._items():
            merged, count, total = self._window_counts(key)
            yield key, {
                **summary,
                "window": {
                    "seconds": self.window_s,
                    "count": count,
                    "sum": total,
                    "p50": self.quantile(0.50, **dict(key)),
                    "p90": self.quantile(0.90, **dict(key)),
                    "p99": self.quantile(0.99, **dict(key)),
                },
            }


class MetricsRegistry:
    """Get-or-create home for every named instrument in the process.

    The instrument table is lock-guarded: get-or-create races between
    threads (the serve execute worker, the event loop, concurrent callers)
    must not double-create an instrument (two threads would then
    increment different Counter objects under the same name and one would
    silently win at export time).  The registry lock is never held while an
    instrument's own lock is taken — exports snapshot the table first, then
    render each instrument outside it — which keeps the lock-order graph
    between registry and instruments edge-free.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls: type, name: str, help: str) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"  # type: ignore[attr-defined]
                )
            elif help and not metric.help:
                metric.help = help
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def windowed_histogram(
        self,
        name: str,
        help: str = "",
        *,
        window_s: float = 60.0,
        slices: int = 6,
        buckets: tuple[float, ...] | None = None,
    ) -> WindowedHistogram:
        """Get-or-create a :class:`WindowedHistogram` (window args apply on
        first creation only; later callers share the existing instance)."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = WindowedHistogram(
                    name, help, window_s=window_s, slices=slices, buckets=buckets
                )
                self._metrics[name] = metric
            elif not isinstance(metric, WindowedHistogram):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested windowed_histogram"
                )
            elif help and not metric.help:
                metric.help = help
            return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def _snapshot(self) -> list[tuple[str, _Metric]]:
        """Name-sorted table snapshot; render instruments outside our lock."""
        with self._lock:
            return sorted(self._metrics.items())

    def as_dict(self) -> dict[str, Any]:
        """All metrics as one JSON-able object keyed by metric name."""
        return {name: metric.as_dict() for name, metric in self._snapshot()}

    def top_counters(self, k: int = 10) -> list[tuple[str, str, float]]:
        """Largest counter values as ``(name, label_string, value)`` rows."""
        rows = []
        for name, metric in self._snapshot():
            if isinstance(metric, Counter):
                for key, value in metric._items():
                    rows.append((name, label_string(key), value))
        rows.sort(key=lambda r: -r[2])
        return rows[:k]


#: Process-wide registry used by the module-level helpers below.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL


def counter_add(name: str, value: float = 1.0, **labels: Any) -> None:
    """Increment a global counter; no-op while instrumentation is disabled."""
    if enabled():
        _GLOBAL.counter(name).inc(value, **labels)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    """Set a global gauge; no-op while instrumentation is disabled."""
    if enabled():
        _GLOBAL.gauge(name).set(value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record a histogram sample; no-op while instrumentation is disabled."""
    if enabled():
        _GLOBAL.histogram(name).observe(value, **labels)


def observe_windowed(
    name: str, value: float, *, window_s: float = 60.0, **labels: Any
) -> None:
    """Record into a sliding-window histogram; no-op while disabled.

    The serve latency series use this so ``/metrics`` can answer windowed
    quantiles; ``window_s`` only matters on the first call that creates the
    instrument.
    """
    if enabled():
        _GLOBAL.windowed_histogram(name, window_s=window_s).observe(value, **labels)


def metrics_json(registry: MetricsRegistry | None = None, *, indent: int = 2) -> str:
    """Serialise a registry (default: the global one) to a JSON string."""
    reg = registry if registry is not None else _GLOBAL
    return json.dumps(reg.as_dict(), indent=indent, sort_keys=True, default=str)
