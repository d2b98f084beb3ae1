"""Observability overhead: disabled-mode tracing must stay under 2%.

The obs layer's contract is "zero-overhead when disabled": every hot-path
instrumentation point is a module-global check plus a shared no-op context
manager.  This artifact measures it directly — 100 fused-convolution calls
with instrumentation disabled vs enabled — and reports the per-call cost.
(The disabled column is the one the < 2% budget applies to; the comparison
baseline is the same loop, which differs from seed code only by the no-op
guards themselves.)

The serve-path variant (``test_serve_telemetry_overhead``) measures the
same contract one layer up: everything the one ``obs.enable()`` switch
turns on (spans with W3C trace ids, windowed latency histograms) plus
SLO burn-rate tracking, against an untraced run of the identical
requests from concurrent clients.  The interleaved wall-clock cost of
tracing is perfbench's ``obs.trace_overhead_frac``.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from repro import obs
from repro.core.fused import conv2d_im2col_winograd

CALLS = 100
SHAPE = dict(batch=4, ih=12, iw=49, ic=32, oc=32)


def _run_calls(x: np.ndarray, w: np.ndarray, calls: int = CALLS) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        conv2d_im2col_winograd(x, w)
    return (time.perf_counter_ns() - t0) / 1e9


def test_obs_overhead(artifact):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((SHAPE["batch"], SHAPE["ih"], SHAPE["iw"], SHAPE["ic"])).astype(
        np.float32
    )
    w = rng.standard_normal((SHAPE["oc"], 3, 3, SHAPE["ic"])).astype(np.float32)

    # Restore whatever the session had (--trace-json enables obs globally).
    was_enabled = obs.enabled()
    try:
        obs.disable()
        _run_calls(x, w, 5)  # warm caches and workspaces
        disabled_s = min(_run_calls(x, w) for _ in range(3))

        obs.enable()
        before = obs.get_tracer().span_count()
        enabled_s = _run_calls(x, w)
        spans = obs.get_tracer().span_count() - before
    finally:
        obs.enable() if was_enabled else obs.disable()

    lines = [
        f"{CALLS} x conv2d_im2col_winograd {SHAPE} (3x3), best of 3:",
        f"  obs disabled: {disabled_s * 1e3:8.2f} ms  ({disabled_s / CALLS * 1e6:.0f} us/call)",
        f"  obs enabled:  {enabled_s * 1e3:8.2f} ms  ({enabled_s / CALLS * 1e6:.0f} us/call, "
        f"{spans} spans recorded)",
        f"  enabled/disabled ratio: {enabled_s / disabled_s:.3f}x",
    ]
    artifact("obs_overhead", "\n".join(lines))

    # Persist the numbers through the perf-baseline store so successive runs
    # can be diffed with `python -m repro.bench.baseline compare --against
    # benchmarks/out/BENCH_obs_overhead.json --candidate <new capture>`.
    from repro.bench.baseline import write_baseline

    out_dir = pathlib.Path(__file__).parent / "out"
    write_baseline(
        out_dir / "BENCH_obs_overhead.json",
        {
            "obs_overhead/disabled.us_per_call": disabled_s / CALLS * 1e6,
            "obs_overhead/enabled.us_per_call": enabled_s / CALLS * 1e6,
            "obs_overhead/enabled_disabled.ratio": enabled_s / disabled_s,
            "obs_overhead/spans_per_call.ratio": spans / CALLS,
        },
        tag="obs_overhead",
        suite="obs_overhead",
    )

    # The budget is on the *disabled* path; enabled tracing may legitimately
    # cost more (it allocates span records).  Guard against gross regressions
    # only — CI machines are noisy.
    assert enabled_s < disabled_s * 3.0


SERVE_REQUESTS = 48


def _serve_concurrently(slo):
    """48 seeded requests from 16 concurrent clients (several full 8-row
    batches) against a fresh resnet18 (w=0.125) service.

    Returns the outputs in request order and the wall seconds they took.
    """
    import asyncio

    from repro.serve import BatchPolicy, InferenceService, SchedulerConfig

    async def run():
        service = InferenceService(
            config=SchedulerConfig(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=2.0),
                default_timeout_ms=None,
                slo=slo,
            )
        )
        entry = service.registry.register("resnet18", width_mult=0.125)
        h, w, c = entry.input_shapes[0]
        xs = [
            np.random.default_rng((0, i)).standard_normal((h, w, c)).astype(np.float32)
            for i in range(SERVE_REQUESTS)
        ]
        gate = asyncio.Semaphore(16)

        async def one(x):
            async with gate:
                return await service.infer("resnet18", x)

        async with service:
            t0 = time.perf_counter()
            outs = await asyncio.gather(*(one(x) for x in xs))
            return outs, time.perf_counter() - t0

    return asyncio.run(run())


def test_serve_telemetry_overhead(artifact):
    """Serve-path telemetry cost: traced vs untraced concurrent serving."""
    from repro.obs.slo import SLOConfig

    was_enabled = obs.enabled()
    try:
        obs.disable()
        off, off_s = _serve_concurrently(None)
        obs.enable()
        tracer = obs.get_tracer()
        before = set(tracer.trace_ids())
        on, on_s = _serve_concurrently(
            SLOConfig(latency_target_ms=10_000.0, error_rate_target=0.01)
        )
        # A request trace is one that holds the scheduler's respond span.
        requests_traced = sum(
            1
            for tid in tracer.trace_ids()
            if tid not in before
            and any(s.name == "serve.respond" for s in tracer.spans_of(tid))
        )
    finally:
        obs.enable() if was_enabled else obs.disable()
    ratio = on_s / off_s
    bit_identical = all(np.array_equal(a, b) for a, b in zip(on, off))
    traced = requests_traced / SERVE_REQUESTS
    lines = [
        f"{SERVE_REQUESTS} requests, 16 clients, resnet18 (w=0.125), telemetry on vs off:",
        f"  off: {SERVE_REQUESTS / off_s:8.1f} req/s",
        f"  on:  {SERVE_REQUESTS / on_s:8.1f} req/s",
        f"  overhead ratio (off/on): {ratio:.3f}x",
        f"  bit identical: {bit_identical:d}  traced: {traced:.2f}",
    ]
    artifact("serve_telemetry_overhead", "\n".join(lines))

    # Numerics must be untouched; the throughput bound is deliberately loose
    # (CI machines are noisy).
    assert bit_identical
    assert traced == 1.0
    assert ratio < 3.0


if __name__ == "__main__":
    test_obs_overhead(lambda name, text: print(text))
    test_serve_telemetry_overhead(lambda name, text: print(text))
