"""Async scheduler: bounded admission, deadlines, failure fan-out.

The robustness contract, in order of a request's life:

* **Admission control** — the queue is bounded (``max_queue_depth``
  requests).  A full queue rejects new work *immediately* with
  :class:`~repro.serve.errors.QueueFull` (HTTP 429) instead of hanging or
  silently dropping; ``serve.rejected`` counts every rejection.
* **Deadlines** — each request carries one (default
  ``default_timeout_ms``).  Requests that age out while queued, or whose
  deadline passes before their batch dispatches, fail with
  :class:`~repro.serve.errors.DeadlineExceeded`; ``serve.expired`` counts
  them.  A deadline is a promise to the client, not a hint.
* **Failure fan-out** — if the batch's forward pass raises, that
  exception reaches every request of the batch (``failed`` in the stats,
  ``serve.failed`` counts them; HTTP 500 through the service) and the
  scheduler goes on serving the
  next batch.  There is no replay on another path: a replay would rerun
  the same non-conv layers and could hide a fault in the compiled one.

Execution happens on one worker thread via ``run_in_executor`` so the
event loop keeps admitting and rejecting while NumPy/BLAS crunches (BLAS
releases the GIL and parallelises each GEMM itself); futures complete back
on the loop.  Teardown (:meth:`Scheduler.stop`) drains or fails the queue
and shuts the worker down.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import numbers
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..obs import (
    counter_add,
    enabled,
    gauge_set,
    observe,
    observe_windowed,
    span,
    telemetry,
)
from ..obs.slo import SLOConfig, SLOStatus, SLOTracker
from ..obs.telemetry import TraceContext
from .batching import Batch, BatchPolicy, DynamicBatcher, PendingRequest
from .errors import BadRequest, DeadlineExceeded, QueueFull, ServiceStopped
from .registry import ModelRegistry

__all__ = ["Scheduler", "SchedulerConfig", "SchedulerStats", "check_timeout_ms"]


def check_timeout_ms(value: object) -> float | None:
    """A request's ``timeout_ms`` as a float, or ``None`` for no deadline.

    Anything but ``None`` or a finite real number (bools, strings, lists,
    NaN, infinities) is a :class:`BadRequest`.  Zero and negative values
    are valid deadlines that have already passed.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise BadRequest(f"timeout_ms must be null or a finite number, got {value!r}")
    return float(value)


@dataclass
class SchedulerConfig:
    """Knobs of one scheduler instance."""

    policy: BatchPolicy = field(default_factory=BatchPolicy)
    #: Bound on queued (admitted, not yet dispatched) requests.
    max_queue_depth: int = 256
    #: Default per-request deadline; ``None`` means no deadline.
    default_timeout_ms: float | None = 1000.0
    #: Service-level objective evaluated by the flush loop; ``None`` (the
    #: default) disables SLO tracking entirely.
    slo: SLOConfig | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        # A NaN default never expires; a non-positive one expires every request.
        t = self.default_timeout_ms
        if t is not None and not (math.isfinite(t) and t > 0):
            raise ValueError(f"default_timeout_ms must be None or finite and > 0, got {t}")


@dataclass
class SchedulerStats:
    """Always-on counters (obs mirrors them when instrumentation is on)."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    failed: int = 0
    batches: int = 0
    max_queue_depth_seen: int = 0
    latency_ms_sum: float = 0.0
    latency_ms_max: float = 0.0
    batch_sizes: dict[int, int] = field(default_factory=dict)
    #: Flush-trigger histogram: "size" / "delay" / "deadline" / "drain".
    batch_triggers: dict[str, int] = field(default_factory=dict)
    #: Quoted-vs-measured batch cost accounting: how well each batch's
    #: quote (:meth:`RegisteredModel.predicted_batch_ns`) matched its run.
    cost_batches: int = 0
    cost_abs_err_pct_sum: float = 0.0
    cost_predicted_ns_sum: float = 0.0
    cost_measured_ns_sum: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        total = sum(self.batch_sizes.values())
        if not total:
            return 0.0
        return sum(size * count for size, count in self.batch_sizes.items()) / total

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_ms_sum / self.completed if self.completed else 0.0

    @property
    def mean_cost_error_pct(self) -> float:
        """Mean absolute quoted-vs-measured batch cost error, percent."""
        return self.cost_abs_err_pct_sum / self.cost_batches if self.cost_batches else 0.0

    @property
    def cost_drift_ratio(self) -> float:
        """Measured over quoted execution ns across all costed batches."""
        if self.cost_predicted_ns_sum <= 0.0:
            return 0.0
        return self.cost_measured_ns_sum / self.cost_predicted_ns_sum

    def as_dict(self) -> dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "batches": self.batches,
            "max_queue_depth_seen": self.max_queue_depth_seen,
            "mean_latency_ms": self.mean_latency_ms,
            "max_latency_ms": self.latency_ms_max,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": {str(k): v for k, v in sorted(self.batch_sizes.items())},
            "flush_triggers": dict(sorted(self.batch_triggers.items())),
            "batch_cost": {
                "count": self.cost_batches,
                "mean_abs_error_pct": self.mean_cost_error_pct,
                "predicted_ms_sum": self.cost_predicted_ns_sum / 1e6,
                "measured_ms_sum": self.cost_measured_ns_sum / 1e6,
                "drift_ratio": self.cost_drift_ratio,
            },
        }


class Scheduler:
    """Dynamic-batching request scheduler over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: SchedulerConfig | None = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else SchedulerConfig()
        self._batcher = DynamicBatcher(
            self.config.policy,
            predicted_batch_ns=lambda model, rows: registry.get(model).predicted_batch_ns(rows),
        )
        self._stats = SchedulerStats()
        self._stats_lock = threading.Lock()
        # SLO tracking (None unless configured).  SLOTracker is not
        # thread-safe on its own; every record/evaluate here runs under
        # ``_stats_lock``, which serialises loop-side bookkeeping against
        # status probes from other threads (tests, /healthz).
        self._slo = SLOTracker(self.config.slo) if self.config.slo is not None else None
        self._batch_seq = itertools.count(1)
        self._wake: asyncio.Event | None = None
        self._loop_task: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        self._pool: ThreadPoolExecutor | None = None
        self._running = False
        #: Set (not None) once a stop owns the teardown; concurrent stops
        #: await it instead of returning early — see :meth:`stop`.
        self._stopping: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "Scheduler":
        if self._running:
            return self
        self._running = True
        self._stopping = None
        self._wake = asyncio.Event()
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve")
        self._loop_task = asyncio.create_task(self._run(), name="repro-serve-flush")
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the flush loop; drain (default) or fail queued requests.

        **Single-flight idempotent**: the first stop owns the teardown;
        any stop arriving while it is still flushing (an explicit stop
        racing an outer teardown layer, a test's ``finally`` racing a
        failure path) *awaits that same teardown* instead of returning
        early — returning early would let its caller proceed to tear down
        the execute worker out from under the in-flight drain batches the
        first stop is still completing.  The first caller's ``drain``
        choice wins.

        Also shuts the execute worker down, once; outer teardown layers
        calling :meth:`stop` again are safe.
        """
        if self._stopping is not None:
            await self._stopping.wait()
            return
        if not self._running:
            return
        self._stopping = asyncio.Event()
        try:
            self._running = False
            assert self._wake is not None
            self._wake.set()
            if self._loop_task is not None:
                await self._loop_task
                self._loop_task = None
            if drain:
                for batch in self._batcher.drain():
                    await self._run_batch(batch)
            else:
                for batch in self._batcher.drain():
                    for req in batch.requests:
                        self._fail(req, ServiceStopped("scheduler stopped"))
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self._gauge_depth()
            self._publish_slo()
        finally:
            # Released even on cancellation: a waiter must never hang on a
            # teardown that is no longer running.
            self._stopping.set()

    # -- submission ----------------------------------------------------------

    async def submit(
        self,
        model: str,
        x: np.ndarray,
        *,
        timeout_ms: float | None | object = "default",
        trace: TraceContext | None = None,
    ) -> np.ndarray:
        """Admit one request and await its result.

        ``trace`` is the request's trace position (the HTTP front end
        builds it from the client's ``traceparent`` header); when omitted
        and telemetry is on, the request continues the caller's active
        trace or starts a fresh one.

        Raises :class:`ModelNotFound` / :class:`BadRequest` synchronously,
        :class:`QueueFull` when admission fails, :class:`DeadlineExceeded`
        when the deadline passes first, :class:`ServiceStopped` if the
        scheduler stops without draining.
        """
        if not self._running or self._wake is None:
            raise ServiceStopped("scheduler is not running")
        entry = self.registry.get(model)
        rows, squeeze = entry.validate(x)
        timeout = (
            self.config.default_timeout_ms
            if timeout_ms == "default"
            else check_timeout_ms(timeout_ms)
        )
        if trace is None and enabled():
            cur = telemetry.current()
            trace = cur.child() if cur is not None else telemetry.start_trace()
        depth = self._batcher.pending_requests()
        if depth >= self.config.max_queue_depth:
            with self._stats_lock:
                self._stats.rejected += 1
                # A rejection is a served error: overload burns SLO budget.
                if self._slo is not None:
                    self._slo.record(0.0, error=True)
            counter_add("serve.rejected", model=model)
            now = time.monotonic()
            telemetry.record_span(
                "serve.request", trace, now, now, root=True,
                model=model, error="QueueFull", queue_depth=depth,
            )
            raise QueueFull(
                f"queue full ({depth}/{self.config.max_queue_depth} requests); retry later"
            )
        now = time.monotonic()
        deadline = None if timeout is None else now + timeout / 1e3
        req = PendingRequest(
            model=model,
            rows=rows,
            squeeze=squeeze,
            enqueued_at=now,
            deadline=deadline,
            future=asyncio.get_running_loop().create_future(),
            trace=trace,
        )
        with self._stats_lock:
            self._stats.submitted += 1
            self._stats.max_queue_depth_seen = max(
                self._stats.max_queue_depth_seen, depth + 1
            )
        counter_add("serve.requests", model=model)
        self._batcher.add(req)
        self._gauge_depth()
        self._wake.set()
        return await req.future

    # -- flush loop ----------------------------------------------------------

    async def _run(self) -> None:
        assert self._wake is not None
        while self._running:
            due = self._batcher.next_due()
            timeout = None if due is None else max(0.0, due - time.monotonic())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except (TimeoutError, asyncio.TimeoutError):
                pass
            self._wake.clear()
            if not self._running:
                break
            now = time.monotonic()
            for req in self._batcher.expire(now):
                self._fail(
                    req,
                    DeadlineExceeded(
                        f"deadline exceeded after {(now - req.enqueued_at) * 1e3:.1f} ms in queue"
                    ),
                    expired=True,
                )
            for batch in self._batcher.take_ready(now):
                task = asyncio.create_task(self._run_batch(batch))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
            self._gauge_depth()
            self._publish_slo()

    async def _run_batch(self, batch: Batch) -> None:
        now = time.monotonic()
        live = [r for r in batch.requests if not r.expired(now)]
        for req in batch.requests:
            if req not in live:
                self._fail(
                    req, DeadlineExceeded("deadline exceeded before dispatch"), expired=True
                )
        if not live:
            return
        if len(live) != len(batch.requests):
            # Expiry shrank the batch; re-quote it for the surviving rows.
            rows = sum(r.nrows for r in live)
            batch = Batch(
                key=batch.key,
                requests=live,
                trigger=batch.trigger,
                predicted_ns=self._batcher.predicted_ns(batch.key[0], rows),
            )
        bid = next(self._batch_seq)
        dispatched = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            out = await loop.run_in_executor(self._pool, self._execute, batch, bid)
        except Exception as exc:  # noqa: B902 - fan the failure out per request
            for req in live:
                self._fail(req, exc)
            return
        done = time.monotonic()
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.batch_sizes[batch.rows] = (
                self._stats.batch_sizes.get(batch.rows, 0) + 1
            )
            self._stats.batch_triggers[batch.trigger] = (
                self._stats.batch_triggers.get(batch.trigger, 0) + 1
            )
        counter_add("serve.batches", model=batch.key[0])
        observe("serve.batch.size", batch.rows, model=batch.key[0])
        for req, part in zip(live, batch.split(out)):
            latency_ms = (done - req.enqueued_at) * 1e3
            with self._stats_lock:
                self._stats.completed += 1
                self._stats.latency_ms_sum += latency_ms
                self._stats.latency_ms_max = max(self._stats.latency_ms_max, latency_ms)
                if self._slo is not None:
                    self._slo.record(latency_ms)
            observe("serve.latency_ms", latency_ms, model=req.model)
            observe_windowed("serve.latency.window_ms", latency_ms, model=req.model)
            self._record_request_trace(req, dispatched, done, bid)
            if not req.future.done():
                req.future.set_result(part)

    def _execute(self, batch: Batch, bid: int = 0) -> np.ndarray:
        """Worker-thread body: one forward pass; its exception propagates."""
        entry = self.registry.get(batch.key[0])
        stacked = batch.stacked()
        # The batch is its own trace: N request traces fan *in* to it, so it
        # belongs to none of them.  Fan-in links name every request's server
        # span; the runtime's transform/gemm/tail spans nest under this one
        # via the contextvar the ``activate`` scope sets in this thread.
        bctx = telemetry.start_trace() if enabled() else None
        # Batch cost is clocked here, not by the span: it runs untraced too.
        # The measurement prices the next batch of this many rows.
        t0 = time.perf_counter_ns()
        with telemetry.activate(bctx), span(
            "serve.batch",
            batch_id=bid,
            model=batch.key[0],
            requests=len(batch.requests),
            rows=batch.rows,
        ) as bspan:
            for req in batch.requests:
                if req.trace is not None:
                    bspan.add_link(req.trace.trace_id, req.trace.span_id)
                with span(
                    "serve.request",
                    rid=req.rid,
                    model=req.model,
                    rows=req.nrows,
                    queued_ms=round((time.monotonic() - req.enqueued_at) * 1e3, 3),
                ):
                    pass
            out = entry.infer_rows(stacked)
        measured_ns = float(time.perf_counter_ns() - t0)
        entry.record_batch_ns(batch.rows, measured_ns)
        self._record_batch_cost(batch, measured_ns)
        return out

    def _record_batch_cost(self, batch: Batch, measured_ns: float) -> None:
        """Score one executed batch's quote against its measured wallclock.

        Error is relative to the measured time.  The quote was taken at
        flush, before this batch's own measurement replaced it.
        """
        predicted_ns = batch.predicted_ns
        err_pct = (
            abs(measured_ns - predicted_ns) / measured_ns * 100.0
            if measured_ns > 0.0
            else 0.0
        )
        with self._stats_lock:
            st = self._stats
            st.cost_batches += 1
            st.cost_abs_err_pct_sum += err_pct
            st.cost_predicted_ns_sum += predicted_ns
            st.cost_measured_ns_sum += measured_ns
        observe(
            "serve.flush.predicted_ns",
            predicted_ns,
            model=batch.key[0],
            trigger=batch.trigger,
        )
        observe("serve.batch.measured_ns", measured_ns, model=batch.key[0])
        if predicted_ns > 0.0:
            gauge_set(
                "serve.batch.cost_drift", measured_ns / predicted_ns, model=batch.key[0]
            )

    # -- bookkeeping ---------------------------------------------------------

    def _fail(self, req: PendingRequest, exc: Exception, *, expired: bool = False) -> None:
        now = time.monotonic()
        latency_ms = (now - req.enqueued_at) * 1e3
        with self._stats_lock:
            if expired:
                self._stats.expired += 1
            else:
                self._stats.failed += 1
            if self._slo is not None:
                self._slo.record(latency_ms, error=True)
        counter_add("serve.expired" if expired else "serve.failed", model=req.model)
        if req.trace is not None:
            telemetry.record_span(
                "serve.request", req.trace, req.enqueued_at, now, root=True,
                rid=req.rid, model=req.model, rows=req.nrows,
                error=type(exc).__name__,
            )
            telemetry.record_span(
                "serve.queued", req.trace, req.enqueued_at, now, model=req.model
            )
        if req.future is not None and not req.future.done():
            req.future.set_exception(exc)

    def _record_request_trace(
        self, req: PendingRequest, dispatched: float, done: float, bid: int
    ) -> None:
        """Reconstruct the request's span tree once its outcome is known.

        Batching destroys request identity mid-flight, so the per-request
        spans are recorded retroactively from scheduler bookkeeping, whose
        ``time.monotonic`` readings :func:`~repro.obs.telemetry.record_span`
        shifts onto the live spans' clock, so the tree lines up:
        ``serve.request`` (the server root the batch span links to) over
        ``admitted -> queued -> batched -> respond``.
        """
        ctx = req.trace
        if ctx is None:
            return
        telemetry.record_span(
            "serve.request", ctx, req.enqueued_at, done, root=True,
            rid=req.rid, model=req.model, rows=req.nrows,
        )
        telemetry.record_span(
            "serve.admitted", ctx, req.enqueued_at, req.enqueued_at, model=req.model
        )
        telemetry.record_span(
            "serve.queued", ctx, req.enqueued_at, dispatched, model=req.model
        )
        telemetry.record_span(
            "serve.batched", ctx, dispatched, done,
            model=req.model, batch_id=bid,
        )
        telemetry.record_span("serve.respond", ctx, done, done, model=req.model)

    # -- SLO -----------------------------------------------------------------

    def slo_status(self) -> SLOStatus | None:
        """Evaluate the configured SLO now; ``None`` when none is set."""
        if self._slo is None:
            return None
        with self._stats_lock:
            return self._slo.evaluate()

    def _publish_slo(self) -> None:
        if self._slo is None:
            return
        with self._stats_lock:
            gauges = self._slo.gauges()
        for name, value in gauges.items():
            gauge_set(name, value)

    def _gauge_depth(self) -> None:
        gauge_set("serve.queue.depth", self._batcher.pending_requests())

    def stats(self) -> SchedulerStats:
        with self._stats_lock:
            snap = SchedulerStats(
                submitted=self._stats.submitted,
                completed=self._stats.completed,
                rejected=self._stats.rejected,
                expired=self._stats.expired,
                failed=self._stats.failed,
                batches=self._stats.batches,
                max_queue_depth_seen=self._stats.max_queue_depth_seen,
                latency_ms_sum=self._stats.latency_ms_sum,
                latency_ms_max=self._stats.latency_ms_max,
                batch_sizes=dict(self._stats.batch_sizes),
                batch_triggers=dict(self._stats.batch_triggers),
                cost_batches=self._stats.cost_batches,
                cost_abs_err_pct_sum=self._stats.cost_abs_err_pct_sum,
                cost_predicted_ns_sum=self._stats.cost_predicted_ns_sum,
                cost_measured_ns_sum=self._stats.cost_measured_ns_sum,
            )
        return snap

    @property
    def queue_depth(self) -> int:
        return self._batcher.pending_requests()
