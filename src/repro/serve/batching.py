"""Dynamic batching: bucket pending requests, flush on size/delay/workspace.

The paper's throughput argument is batch-shaped — §4.1's grid blocking
quantizes work into fixed-size tiles and waves, so a dispatch that does not
fill its wave pays for the empty tail slots anyway
(``GridPlan.tail_blocks`` / ``wave_slots`` in :mod:`repro.gpusim.blocking`
compute exactly that loss).  Serving one request at a time is the
request-level version of that tail: every dispatch re-pays the per-call
setup and leaves its batch slots underfilled.  The batcher coalesces
concurrent requests of the same *input signature* into one NHWC batch so a
single dispatch amortizes the setup across all of them.

Pure data structure: the asyncio scheduler owns time and execution; this
module only decides *what forms a batch and when*.  Four flush triggers,
checked per bucket:

``max_batch_size``
    A bucket holding that many rows flushes immediately (the wave is full).
``max_queue_delay_ms``
    The oldest request may wait at most this long before its bucket
    flushes regardless of fill — the latency/throughput knob.
``max_workspace_bytes``
    Budget on ``rows x per_row_workspace_bytes`` per dispatch (the
    registry measures per-row bytes from the warmed executables), capping
    coalescing for large-activation models before memory does.
deadline pressure (``predicted_batch_ns``)
    When the owner supplies a batch quote (the registry's latest measured
    wallclock of a batch that size), a bucket holding deadlined requests
    flushes as soon as ``now + quote(batch) >= earliest deadline`` —
    waiting any longer would, by the last measured batch, make the
    response late.  Without a quote a deadlined request waits the full
    queue delay and may expire in the queue; with it, the batcher trades
    batch fill for an on-time dispatch.

Requests never split across batches: a request is the unit of response.
Each popped :class:`Batch` carries its flush ``trigger`` and the
``predicted_ns`` quoted for it, so the scheduler can emit
``serve.flush.predicted_ns`` and compare the quote against the measured
execution.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

__all__ = ["BatchPolicy", "Batch", "BucketKey", "DynamicBatcher", "PendingRequest"]

#: Bucket identity: everything that must match for rows to share a forward
#: pass — the model and the per-row input signature (shape tail + dtype).
BucketKey = tuple[str, tuple[int, int, int], str]

_rid_counter = itertools.count(1)


@dataclass
class BatchPolicy:
    """Flush knobs of one batcher instance."""

    max_batch_size: int = 8
    max_queue_delay_ms: float = 2.0
    max_workspace_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        # NaN passes a plain ``< 0`` check and would never flush a bucket.
        if not (math.isfinite(self.max_queue_delay_ms) and self.max_queue_delay_ms >= 0):
            raise ValueError(
                f"max_queue_delay_ms must be finite and >= 0, got {self.max_queue_delay_ms}"
            )
        if self.max_workspace_bytes is not None and self.max_workspace_bytes < 1:
            raise ValueError(
                f"max_workspace_bytes must be >= 1, got {self.max_workspace_bytes}"
            )


@dataclass(eq=False)  # identity semantics: ndarray fields make field-eq ill-defined
class PendingRequest:
    """One admitted request waiting in a bucket."""

    model: str
    rows: np.ndarray  # (k, H, W, C), k >= 1
    squeeze: bool  # response drops the batch axis (input was (H, W, C))
    enqueued_at: float  # monotonic seconds
    deadline: float | None  # monotonic seconds, None = no deadline
    future: Any = None  # asyncio.Future in the scheduler; tests may omit
    #: Request trace position (:class:`repro.obs.telemetry.TraceContext`)
    #: when request-scoped telemetry is on; ``None`` otherwise.  Typed
    #: ``Any`` to keep this module a pure data structure with no obs import.
    trace: Any = None
    rid: int = field(default_factory=lambda: next(_rid_counter))

    @property
    def nrows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def key(self) -> BucketKey:
        return (self.model, tuple(self.rows.shape[1:]), str(self.rows.dtype))

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class Batch:
    """An ordered group of requests that will share one forward pass."""

    key: BucketKey
    requests: list[PendingRequest]
    #: Which flush trigger popped this batch: "size", "delay", "deadline"
    #: (quoted deadline pressure) or "drain".
    trigger: str = "size"
    #: Execution ns quoted at flush time (0.0 when the batcher has no
    #: quote).
    predicted_ns: float = 0.0

    @property
    def rows(self) -> int:
        return sum(r.nrows for r in self.requests)

    def stacked(self) -> np.ndarray:
        """All request rows as one contiguous NHWC batch (request order)."""
        if len(self.requests) == 1:
            return np.ascontiguousarray(self.requests[0].rows)
        return np.concatenate([r.rows for r in self.requests], axis=0)

    def split(self, out: np.ndarray) -> list[np.ndarray]:
        """Slice a batched output back per request, bit-untouched.

        The inverse of :meth:`stacked`: row ``i`` of the model output is
        row ``i`` of whichever request contributed it, so responses are
        exactly the rows serial execution would have produced.
        """
        parts: list[np.ndarray] = []
        n0 = 0
        for req in self.requests:
            part = out[n0 : n0 + req.nrows]
            parts.append(part[0] if req.squeeze else part)
            n0 += req.nrows
        if n0 != out.shape[0]:
            raise ValueError(
                f"batch split mismatch: {n0} request rows vs {out.shape[0]} output rows"
            )
        return parts


class _Bucket:
    """FIFO of pending requests sharing one :data:`BucketKey`."""

    def __init__(self, key: BucketKey) -> None:
        self.key = key
        self.pending: list[PendingRequest] = []

    @property
    def rows(self) -> int:
        return sum(r.nrows for r in self.pending)

    @property
    def oldest_at(self) -> float | None:
        return self.pending[0].enqueued_at if self.pending else None


class DynamicBatcher:
    """Signature-bucketed request store with size/delay/workspace flushing."""

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        *,
        per_row_bytes: Callable[[str], int] | None = None,
        predicted_batch_ns: Callable[[str, int], float] | None = None,
    ) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        # Model name -> measured per-row workspace (the registry's warmup
        # number); absent/zero disables the workspace trigger for that model.
        self._per_row_bytes = per_row_bytes
        # (model, rows) -> quoted dispatch ns (the registry's measured batch
        # times); absent disables the deadline-pressure trigger.
        self._predicted_batch_ns = predicted_batch_ns
        self._buckets: "OrderedDict[BucketKey, _Bucket]" = OrderedDict()

    # -- capacity ------------------------------------------------------------

    def max_rows_for(self, model: str) -> int:
        """Row cap per batch: ``max_batch_size`` tightened by the budget."""
        cap = self.policy.max_batch_size
        per_row = 0
        if self._per_row_bytes is not None:
            per_row = self._per_row_bytes(model)
        budget = self.policy.max_workspace_bytes
        if budget is not None and per_row > 0:
            cap = min(cap, max(1, budget // per_row))
        return cap

    def predicted_ns(self, model: str, rows: int) -> float:
        """Quote for dispatching ``rows`` now (0.0 = no quote)."""
        if self._predicted_batch_ns is None or rows <= 0:
            return 0.0
        return max(0.0, float(self._predicted_batch_ns(model, rows)))

    def _deadline_pressed(self, bucket: "_Bucket", now: float, cap: int) -> bool:
        """True when waiting longer would predictably miss a deadline."""
        if self._predicted_batch_ns is None:
            return False
        deadlines = [r.deadline for r in bucket.pending if r.deadline is not None]
        if not deadlines:
            return False
        cost_s = self.predicted_ns(bucket.key[0], min(bucket.rows, cap)) * 1e-9
        return now + cost_s >= min(deadlines)

    # -- mutation ------------------------------------------------------------

    def add(self, req: PendingRequest) -> bool:
        """Enqueue; returns True if the bucket is now ready to flush."""
        bucket = self._buckets.get(req.key)
        if bucket is None:
            bucket = self._buckets[req.key] = _Bucket(req.key)
        bucket.pending.append(req)
        return bucket.rows >= self.max_rows_for(req.model)

    def expire(self, now: float) -> list[PendingRequest]:
        """Remove and return every queued request whose deadline passed."""
        dead: list[PendingRequest] = []
        for bucket in self._buckets.values():
            keep = []
            for req in bucket.pending:
                (dead if req.expired(now) else keep).append(req)
            bucket.pending = keep
        self._prune()
        return dead

    def take_ready(self, now: float) -> list[Batch]:
        """Pop every batch due by fill, by age or by deadline pressure.

        A full bucket yields as many full batches as it holds; a bucket
        whose oldest request has waited ``max_queue_delay_ms`` — or whose
        earliest deadline the quote says the next dispatch would otherwise
        miss — flushes entirely (in row-capped chunks).
        Oversized single requests (more rows than the cap) always dispatch
        alone rather than being split.
        """
        delay_s = self.policy.max_queue_delay_ms / 1e3
        out: list[Batch] = []
        for bucket in self._buckets.values():
            cap = self.max_rows_for(bucket.key[0])
            overdue = (
                bucket.oldest_at is not None and now - bucket.oldest_at >= delay_s
            )
            pressed = not overdue and self._deadline_pressed(bucket, now, cap)
            while bucket.rows >= cap or ((overdue or pressed) and bucket.pending):
                full = bucket.rows >= cap
                taken: list[PendingRequest] = [bucket.pending.pop(0)]
                rows = taken[0].nrows
                while bucket.pending and rows + bucket.pending[0].nrows <= cap:
                    req = bucket.pending.pop(0)
                    taken.append(req)
                    rows += req.nrows
                trigger = "size" if full else ("deadline" if pressed else "delay")
                out.append(
                    Batch(
                        key=bucket.key,
                        requests=taken,
                        trigger=trigger,
                        predicted_ns=self.predicted_ns(bucket.key[0], rows),
                    )
                )
        self._prune()
        return out

    def drain(self) -> list[Batch]:
        """Flush everything immediately (scheduler stop with drain)."""
        out: list[Batch] = []
        for bucket in self._buckets.values():
            cap = self.max_rows_for(bucket.key[0])
            while bucket.pending:
                taken = [bucket.pending.pop(0)]
                rows = taken[0].nrows
                while bucket.pending and rows + bucket.pending[0].nrows <= cap:
                    req = bucket.pending.pop(0)
                    taken.append(req)
                    rows += req.nrows
                out.append(
                    Batch(
                        key=bucket.key,
                        requests=taken,
                        trigger="drain",
                        predicted_ns=self.predicted_ns(bucket.key[0], rows),
                    )
                )
        self._buckets.clear()
        return out

    # -- introspection -------------------------------------------------------

    def next_due(self) -> float | None:
        """Earliest monotonic time any queued work needs attention, or None.

        The soonest of (a) the oldest request in any bucket reaching
        ``max_queue_delay_ms`` (flush due), (b) the earliest queued request
        deadline (expiry due) and (c) with a quote, each deadline minus the
        quoted dispatch time of its bucket (the last instant a flush can
        still predictably make that deadline) — the scheduler
        sleeps exactly until this instant, so deadlines are enforced on
        time even when their bucket is nowhere near its delay flush.
        """
        delay_s = self.policy.max_queue_delay_ms / 1e3
        times = [
            b.oldest_at + delay_s for b in self._buckets.values() if b.oldest_at is not None
        ]
        for b in self._buckets.values():
            deadlines = [r.deadline for r in b.pending if r.deadline is not None]
            if not deadlines:
                continue
            times.extend(deadlines)
            if self._predicted_batch_ns is not None:
                cap = self.max_rows_for(b.key[0])
                cost_s = self.predicted_ns(b.key[0], min(b.rows, cap)) * 1e-9
                times.append(min(deadlines) - cost_s)
        return min(times) if times else None

    def pending_requests(self) -> int:
        return sum(len(b.pending) for b in self._buckets.values())

    def pending_rows(self) -> int:
        return sum(b.rows for b in self._buckets.values())

    def buckets(self) -> Iterable[BucketKey]:
        return list(self._buckets)

    def _prune(self) -> None:
        for key in [k for k, b in self._buckets.items() if not b.pending]:
            del self._buckets[key]
