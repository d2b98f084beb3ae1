"""Predict-vs-measure timing ledger for the compiled-conv runtime.

Every timed execution (compiled executable, legacy fallback, serve batch)
records one observation — the wallclock ns the call actually took next to
the ns the cost model predicted for the same plan — keyed by
``(signature, variant, rows, path)``.  The ledger is the closed-loop half
of :mod:`repro.gpusim.calibrate`: the calibration fits the model to the
machine once, the ledger then watches the two stay in agreement while real
work runs.

Storage is bounded (LRU over keys, ring over raw samples) and lock-guarded
so the serve scheduler's worker threads can record concurrently.  Each
record also feeds the ordinary obs metrics pipeline —
``perf.predicted_ns`` / ``perf.measured_ns`` histograms and a
``perf.drift`` gauge per signature — so the values surface on ``/metrics``
via :mod:`repro.obs.promexport` with no extra wiring, and the raw sample
ring is merged into the Chrome trace as a ``perf.predicted_vs_measured``
counter track (:mod:`repro.obs.chrometrace`).

The ledger takes no clock readings of its own.  The compiled and legacy
conv paths pass the ``duration_s`` of the span they already open around
the call (see :func:`repro.obs.span`), so the measured ns and the traced
stage times come from the same two clock reads.  With observability off
that span is the no-op singleton, nothing is timed and the ledger stays
empty (:func:`record_execution` also checks :func:`repro.obs.enabled`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from .metrics import gauge_set, observe
from .tracer import enabled

__all__ = [
    "DRIFT_BAND",
    "LedgerKey",
    "LedgerEntry",
    "LedgerSample",
    "PerfLedger",
    "get_ledger",
    "record_execution",
    "reset_ledger",
]

#: Default acceptance band for the measured/predicted drift ratio.  Wide on
#: purpose: the hand-set coefficients are order-of-magnitude priors, and the
#: band check must not page on an uncalibrated machine doing its first run.
#: After ``python -m repro.gpusim.calibrate fit`` the ratio sits near 1.
DRIFT_BAND: tuple[float, float] = (0.33, 3.0)

#: ``(signature, variant, rows, path)`` — ``path`` is the execution route:
#: ``"compiled"`` (ConvExecutable), ``"legacy"`` (forced degradation), or
#: ``"serve"`` (whole-batch model forward in the scheduler).
LedgerKey = tuple[str, str, int, str]


@dataclass
class LedgerEntry:
    """Streaming statistics for one ledger key."""

    key: LedgerKey
    count: int = 0
    predicted_ns_sum: float = 0.0
    measured_ns_sum: float = 0.0
    measured_ns_min: float = float("inf")
    measured_ns_max: float = 0.0
    last_predicted_ns: float = 0.0
    last_measured_ns: float = 0.0
    last_at_s: float = 0.0

    @property
    def drift_ratio(self) -> float:
        """measured / predicted over the entry's lifetime (1.0 = perfect)."""
        if self.predicted_ns_sum <= 0.0:
            return 0.0
        return self.measured_ns_sum / self.predicted_ns_sum

    @property
    def mean_abs_error_pct(self) -> float:
        if self.measured_ns_sum <= 0.0:
            return 0.0
        return abs(self.predicted_ns_sum - self.measured_ns_sum) / self.measured_ns_sum * 100.0

    def in_band(self, band: tuple[float, float] = DRIFT_BAND) -> bool:
        lo, hi = band
        return lo <= self.drift_ratio <= hi

    def as_dict(self) -> dict[str, Any]:
        return {
            "signature": self.key[0],
            "variant": self.key[1],
            "rows": self.key[2],
            "path": self.key[3],
            "count": self.count,
            "predicted_ms_sum": self.predicted_ns_sum / 1e6,
            "measured_ms_sum": self.measured_ns_sum / 1e6,
            "measured_ms_min": (
                self.measured_ns_min / 1e6 if self.count else 0.0
            ),
            "measured_ms_max": self.measured_ns_max / 1e6,
            "drift_ratio": self.drift_ratio,
            "in_band": self.in_band(),
        }


@dataclass(frozen=True)
class LedgerSample:
    """One raw observation, timestamped on the tracer's perf_counter clock."""

    t_s: float
    key: LedgerKey
    predicted_ns: float
    measured_ns: float


@dataclass
class PerfLedger:
    """Bounded, lock-guarded predicted-vs-measured ledger.

    ``capacity`` bounds the per-key entry map (LRU eviction) and
    ``sample_capacity`` the raw ring the Chrome trace consumes; both are
    small enough that a long-lived serve process cannot grow the ledger
    without bound.
    """

    capacity: int = 256
    sample_capacity: int = 2048
    _entries: "OrderedDict[LedgerKey, LedgerEntry]" = field(default_factory=OrderedDict)
    _samples: "deque[LedgerSample]" = field(init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        self._samples = deque(maxlen=self.sample_capacity)

    def record(
        self,
        *,
        signature: str,
        variant: str,
        rows: int,
        path: str,
        predicted_ns: float,
        measured_ns: float,
    ) -> LedgerEntry:
        """Record one execution and emit the ``perf.*`` metrics for it."""
        key: LedgerKey = (signature, variant, int(rows), path)
        now = time.perf_counter()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = LedgerEntry(key=key)
                self._entries[key] = entry
            else:
                self._entries.move_to_end(key)
            entry.count += 1
            entry.predicted_ns_sum += predicted_ns
            entry.measured_ns_sum += measured_ns
            entry.measured_ns_min = min(entry.measured_ns_min, measured_ns)
            entry.measured_ns_max = max(entry.measured_ns_max, measured_ns)
            entry.last_predicted_ns = predicted_ns
            entry.last_measured_ns = measured_ns
            entry.last_at_s = now
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            drift = entry.drift_ratio
            self._samples.append(
                LedgerSample(
                    t_s=now, key=key, predicted_ns=predicted_ns, measured_ns=measured_ns
                )
            )
        observe("perf.predicted_ns", predicted_ns, path=path, sig=signature)
        observe("perf.measured_ns", measured_ns, path=path, sig=signature)
        gauge_set("perf.drift", drift, path=path, sig=signature)
        return entry

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[LedgerEntry]:
        """Snapshot of the per-key entries (most recently used last)."""
        with self._lock:
            return [
                LedgerEntry(
                    key=e.key,
                    count=e.count,
                    predicted_ns_sum=e.predicted_ns_sum,
                    measured_ns_sum=e.measured_ns_sum,
                    measured_ns_min=e.measured_ns_min,
                    measured_ns_max=e.measured_ns_max,
                    last_predicted_ns=e.last_predicted_ns,
                    last_measured_ns=e.last_measured_ns,
                    last_at_s=e.last_at_s,
                )
                for e in self._entries.values()
            ]

    def samples(self) -> list[LedgerSample]:
        """Snapshot of the raw sample ring (chronological)."""
        with self._lock:
            return list(self._samples)

    def drift_report(self, band: tuple[float, float] = DRIFT_BAND) -> dict[str, Any]:
        """Band-check summary for ``/v1/stats`` and ``obs.report``."""
        entries = self.entries()
        total = sum(e.count for e in entries)
        in_band = [e for e in entries if e.in_band(band)]
        errors = [e.mean_abs_error_pct for e in entries]
        worst = max(entries, key=lambda e: abs(e.drift_ratio - 1.0), default=None)
        report: dict[str, Any] = {
            "band": list(band),
            "tracked_keys": len(entries),
            "executions": total,
            "in_band_keys": len(in_band),
            "in_band_fraction": (len(in_band) / len(entries)) if entries else 1.0,
            "mean_abs_error_pct": (sum(errors) / len(errors)) if errors else 0.0,
        }
        if worst is not None:
            report["worst"] = worst.as_dict()
        return report

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self._samples.clear()


_GLOBAL = PerfLedger()


def get_ledger() -> PerfLedger:
    """The process-wide ledger every execution path records into."""
    return _GLOBAL


def record_execution(
    *,
    signature: str,
    variant: str,
    rows: int,
    path: str,
    predicted_ns: float,
    measured_ns: float,
) -> None:
    """Record into the global ledger iff observability is enabled."""
    if not enabled():
        return
    _GLOBAL.record(
        signature=signature,
        variant=variant,
        rows=rows,
        path=path,
        predicted_ns=predicted_ns,
        measured_ns=measured_ns,
    )


def reset_ledger() -> None:
    """Clear the global ledger (tests, bench isolation)."""
    _GLOBAL.reset()


def ledger_events(
    pid: int, origin_s: float, samples: Iterable[LedgerSample] | None = None
) -> list[dict[str, Any]]:
    """Chrome-trace ``"C"`` events for the predicted-vs-measured track.

    One counter event per raw sample, on the same ``perf_counter``-relative
    microsecond axis the span events use.  Samples recorded before the
    tracer's origin (e.g. before a ``reset``) are clamped to ts 0 so the
    track never extends left of the trace.
    """
    if samples is None:
        samples = _GLOBAL.samples()
    events = []
    for s in samples:
        events.append(
            {
                "name": "perf.predicted_vs_measured",
                "ph": "C",
                "ts": max(0.0, (s.t_s - origin_s) * 1e6),
                "pid": pid,
                "tid": 0,
                "args": {
                    "predicted_ns": s.predicted_ns,
                    "measured_ns": s.measured_ns,
                },
            }
        )
    return events
