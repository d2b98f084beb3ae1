"""Load generation: open- and closed-loop driving of an InferenceService.

Two canonical load models:

* **closed loop** — ``concurrency`` workers each keep exactly one request
  in flight (issue, await, repeat).  Offered load adapts to service speed;
  this measures *capacity* (requests/sec at a given concurrency) and is
  the mode the ``serve-smoke`` baseline records.
* **open loop** — requests arrive on a fixed schedule (``rate_rps``)
  regardless of completions, the arrival process of real traffic.  Unlike
  the closed loop it exposes queueing collapse: when the service cannot
  keep up, latency and rejections grow instead of the arrival rate
  politely slowing down.

Both produce a :class:`LoadgenResult`: throughput, p50/p95/p99/mean/max
latency, per-error-kind counts, the scheduler's batch-size histogram —
the distribution that shows whether dynamic batching actually coalesced —
and the scheduler's quoted-vs-measured batch cost summary over exactly
the batches this run flushed (count + mean absolute error %), the serving
edge's view of how well earlier measured batches priced later ones.

Inputs are deterministic per request id (seeded from ``(seed, rid)``), so
two runs over the same id set see identical payloads — which is what lets
the baseline suite assert the batched run's outputs are bit-identical to
the serial run's.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

import numpy as np

from ..obs import enabled, telemetry
from .errors import DeadlineExceeded, QueueFull, ServeError
from .registry import RegisteredModel
from .scheduler import SchedulerStats
from .service import InferenceService

__all__ = [
    "LoadgenResult",
    "closed_loop",
    "open_loop",
    "percentile",
    "seeded_input_fn",
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of an unsorted sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def seeded_input_fn(
    entry: RegisteredModel, *, seed: int = 0
) -> Callable[[int], np.ndarray]:
    """Deterministic request payloads: one sample per request id."""
    h, w, c = entry.input_shapes[0]

    def make(rid: int) -> np.ndarray:
        rng = np.random.default_rng((seed, rid))
        return rng.standard_normal((h, w, c)).astype(entry.dtype)

    return make


@dataclass
class LoadgenResult:
    """Outcome of one load-generation run."""

    mode: str
    model: str
    requests: int
    completed: int
    errors: dict[str, int]
    duration_s: float
    latencies_ms: list[float] = field(repr=False)
    batch_size_histogram: dict[int, int] = field(default_factory=dict)
    #: Predicted-vs-actual batch cost over this run's flushed batches:
    #: ``{"count", "mean_abs_error_pct", "predicted_ms_sum",
    #: "measured_ms_sum", "drift_ratio"}`` — empty when no batch was costed.
    batch_cost: dict[str, float] = field(default_factory=dict)
    outputs: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    #: Trace ids of the requests this run issued (telemetry on only).
    trace_ids: list[str] = field(default_factory=list, repr=False)
    #: Server-attributed latency split per traced request (telemetry on
    #: only): where the client-observed milliseconds actually went.
    queued_ms: list[float] = field(default_factory=list, repr=False)
    execute_ms: list[float] = field(default_factory=list, repr=False)

    @property
    def requests_per_sec(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        total = sum(self.batch_size_histogram.values())
        if not total:
            return 0.0
        return sum(s * n for s, n in self.batch_size_histogram.items()) / total

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    def server_attribution(self) -> dict[str, dict[str, float]] | None:
        """Server-side queue-wait vs execute split of the traced requests.

        ``None`` unless request telemetry recorded the scheduler's spans —
        the sum of the two parts approximates the client latency; the gap
        is event-loop scheduling and response fan-out.
        """
        if not self.queued_ms or not self.execute_ms:
            return None
        out: dict[str, dict[str, float]] = {}
        for name, sample in (("queued_ms", self.queued_ms), ("execute_ms", self.execute_ms)):
            out[name] = {
                "p50": percentile(sample, 50),
                "p95": percentile(sample, 95),
                "p99": percentile(sample, 99),
                "mean": sum(sample) / len(sample),
            }
        return out

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "mode": self.mode,
            "model": self.model,
            "requests": self.requests,
            "completed": self.completed,
            "errors": dict(self.errors),
            "duration_s": self.duration_s,
            "requests_per_sec": self.requests_per_sec,
            "latency_ms": {
                "p50": self.latency_ms(50),
                "p95": self.latency_ms(95),
                "p99": self.latency_ms(99),
                "mean": (
                    sum(self.latencies_ms) / len(self.latencies_ms)
                    if self.latencies_ms
                    else 0.0
                ),
                "max": max(self.latencies_ms, default=0.0),
            },
            "batch_size_histogram": {
                str(k): v for k, v in sorted(self.batch_size_histogram.items())
            },
            "mean_batch_size": self.mean_batch_size,
        }
        if self.batch_cost:
            out["batch_cost"] = dict(self.batch_cost)
        split = self.server_attribution()
        if split is not None:
            out["server_attribution"] = {**split, "traced": len(self.queued_ms)}
        return out

    def report(self) -> str:
        d = self.as_dict()
        lat = d["latency_ms"]
        hist = ", ".join(f"{k}x{v}" for k, v in d["batch_size_histogram"].items())  # type: ignore[union-attr]
        lines = [
            f"[loadgen] {self.mode} {self.model}: {self.completed}/{self.requests} ok "
            f"in {self.duration_s:.2f}s -> {self.requests_per_sec:.1f} req/s",
            f"  latency ms: p50={lat['p50']:.2f} p95={lat['p95']:.2f} "  # type: ignore[index]
            f"p99={lat['p99']:.2f} max={lat['max']:.2f}",  # type: ignore[index]
            f"  batch sizes: {hist or '-'}   mean={self.mean_batch_size:.2f}",
            f"  errors: {self.errors or '-'}",
        ]
        if self.batch_cost:
            lines.append(
                f"  batch cost: {int(self.batch_cost.get('count', 0))} costed, "
                f"mean |err|={self.batch_cost.get('mean_abs_error_pct', 0.0):.1f}%  "
                f"measured/predicted={self.batch_cost.get('drift_ratio', 0.0):.2f}x"
            )
        split = self.server_attribution()
        if split is not None:
            q, e = split["queued_ms"], split["execute_ms"]
            lines.append(
                f"  server split ms (traced={len(self.queued_ms)}): "
                f"queued p50={q['p50']:.2f} p99={q['p99']:.2f}  "
                f"execute p50={e['p50']:.2f} p99={e['p99']:.2f}"
            )
        return "\n".join(lines)


def _error_key(exc: BaseException) -> str:
    if isinstance(exc, QueueFull):
        return "rejected"
    if isinstance(exc, DeadlineExceeded):
        return "expired"
    if isinstance(exc, ServeError):
        return type(exc).__name__
    return "error"


async def _issue(
    service: InferenceService,
    model: str,
    rid: int,
    input_fn: Callable[[int], np.ndarray],
    timeout_ms: float | None | object,
    latencies: list[float],
    errors: dict[str, int],
    outputs: dict[int, np.ndarray] | None,
    trace_ids: list[str] | None = None,
) -> None:
    x = input_fn(rid)
    # Behave like a traced client: mint a fresh trace per request (the
    # in-process analogue of sending a traceparent header) so the finish
    # step can pull the server's queued/execute attribution back out.
    trace = telemetry.start_trace() if enabled() else None
    t0 = time.perf_counter()
    try:
        y = await service.infer(model, x, timeout_ms=timeout_ms, trace=trace)
    except Exception as exc:  # noqa: B902 - tally, don't crash the run
        errors[_error_key(exc)] = errors.get(_error_key(exc), 0) + 1
        return
    latencies.append((time.perf_counter() - t0) * 1e3)
    if trace is not None and trace_ids is not None:
        trace_ids.append(trace.trace_id)
    if outputs is not None:
        outputs[rid] = y


async def closed_loop(
    service: InferenceService,
    model: str,
    *,
    requests: int,
    concurrency: int = 8,
    input_fn: Callable[[int], np.ndarray] | None = None,
    timeout_ms: float | None | object = "default",
    seed: int = 0,
    collect_outputs: bool = False,
) -> LoadgenResult:
    """``concurrency`` workers, one request in flight each, until done."""
    if requests < 1 or concurrency < 1:
        raise ValueError("requests and concurrency must be >= 1")
    fn = input_fn or seeded_input_fn(service.registry.get(model), seed=seed)
    stats_before = service.scheduler.stats()
    latencies: list[float] = []
    errors: dict[str, int] = {}
    outputs: dict[int, np.ndarray] | None = {} if collect_outputs else None
    trace_ids: list[str] = []
    pending = iter(range(requests))

    async def worker() -> None:
        for rid in pending:
            await _issue(
                service, model, rid, fn, timeout_ms, latencies, errors, outputs, trace_ids
            )

    t0 = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(min(concurrency, requests))))
    duration = time.perf_counter() - t0
    return _finish(
        service, "closed", model, requests, latencies, errors, outputs, duration,
        stats_before, trace_ids,
    )


async def open_loop(
    service: InferenceService,
    model: str,
    *,
    rate_rps: float,
    requests: int,
    input_fn: Callable[[int], np.ndarray] | None = None,
    timeout_ms: float | None | object = "default",
    seed: int = 0,
    collect_outputs: bool = False,
) -> LoadgenResult:
    """Fixed-interval arrivals at ``rate_rps``, independent of completions."""
    if requests < 1 or rate_rps <= 0:
        raise ValueError("requests must be >= 1 and rate_rps > 0")
    fn = input_fn or seeded_input_fn(service.registry.get(model), seed=seed)
    stats_before = service.scheduler.stats()
    latencies: list[float] = []
    errors: dict[str, int] = {}
    outputs: dict[int, np.ndarray] | None = {} if collect_outputs else None
    trace_ids: list[str] = []
    interval = 1.0 / rate_rps
    tasks: list[Awaitable[None]] = []

    t0 = time.perf_counter()
    for rid in range(requests):
        target = t0 + rid * interval
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                _issue(
                    service, model, rid, fn, timeout_ms, latencies, errors, outputs,
                    trace_ids,
                )
            )
        )
    await asyncio.gather(*tasks)
    duration = time.perf_counter() - t0
    return _finish(
        service, "open", model, requests, latencies, errors, outputs, duration,
        stats_before, trace_ids,
    )


def _finish(
    service: InferenceService,
    mode: str,
    model: str,
    requests: int,
    latencies: list[float],
    errors: dict[str, int],
    outputs: dict[int, np.ndarray] | None,
    duration: float,
    stats_before: SchedulerStats,
    trace_ids: list[str] | None = None,
) -> LoadgenResult:
    stats_after = service.scheduler.stats()
    batches_before = stats_before.batch_sizes
    delta = {
        size: count - batches_before.get(size, 0)
        for size, count in stats_after.batch_sizes.items()
        if count - batches_before.get(size, 0) > 0
    }
    # Batch-cost summary scoped to this run: difference the scheduler's
    # cumulative sums so back-to-back runs against one service don't bleed
    # into each other.
    cost_count = stats_after.cost_batches - stats_before.cost_batches
    batch_cost: dict[str, float] = {}
    if cost_count > 0:
        err_sum = stats_after.cost_abs_err_pct_sum - stats_before.cost_abs_err_pct_sum
        pred_sum = stats_after.cost_predicted_ns_sum - stats_before.cost_predicted_ns_sum
        meas_sum = stats_after.cost_measured_ns_sum - stats_before.cost_measured_ns_sum
        batch_cost = {
            "count": float(cost_count),
            "mean_abs_error_pct": err_sum / cost_count,
            "predicted_ms_sum": pred_sum / 1e6,
            "measured_ms_sum": meas_sum / 1e6,
            "drift_ratio": meas_sum / pred_sum if pred_sum > 0 else 0.0,
        }
    split = telemetry.queue_execute_split(trace_ids) if trace_ids else {}
    return LoadgenResult(
        mode=mode,
        model=model,
        requests=requests,
        completed=len(latencies),
        errors=errors,
        duration_s=duration,
        latencies_ms=latencies,
        batch_size_histogram=delta,
        batch_cost=batch_cost,
        outputs=outputs or {},
        trace_ids=list(trace_ids or ()),
        queued_ms=split.get("queued_ms", []),
        execute_ms=split.get("execute_ms", []),
    )

