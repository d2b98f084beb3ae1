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
closed-loop load, via the ``telemetry-smoke`` baseline suite.  It writes
``benchmarks/out/BENCH_telemetry.json`` — the
capture the committed root-level ``BENCH_telemetry_gate.json`` floors are
distilled from.
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


def test_serve_telemetry_overhead(artifact):
    """Serve-path telemetry cost: traced vs untraced closed-loop serving."""
    from repro.bench.baseline import suite_metrics, write_baseline

    metrics = suite_metrics("telemetry-smoke")
    ratio = metrics["telemetry/resnet18/overhead.ratio"]
    lines = [
        "closed-loop resnet18 (w=0.125), telemetry on vs off:",
        f"  off: {metrics['telemetry/resnet18/off.requests_per_sec']:8.1f} req/s  "
        f"p99 {metrics['telemetry/resnet18/off.p99.time_ms']:.2f} ms",
        f"  on:  {metrics['telemetry/resnet18/on.requests_per_sec']:8.1f} req/s  "
        f"p99 {metrics['telemetry/resnet18/on.p99.time_ms']:.2f} ms",
        f"  overhead ratio (off/on): {ratio:.3f}x",
        f"  bit identical: {metrics['telemetry/resnet18/bit_identical']:.0f}  "
        f"traced: {metrics['telemetry/resnet18/traced_fraction']:.2f}  "
        f"attributed: {metrics['telemetry/resnet18/attributed_fraction']:.2f}",
        f"  windowed p50/p99 ms: {metrics['telemetry/resnet18/window.p50.time_ms']:.2f}"
        f"/{metrics['telemetry/resnet18/window.p99.time_ms']:.2f}",
    ]
    artifact("serve_telemetry_overhead", "\n".join(lines))

    out_dir = pathlib.Path(__file__).parent / "out"
    write_baseline(
        out_dir / "BENCH_telemetry.json",
        metrics,
        tag="telemetry",
        suite="telemetry-smoke",
    )

    # Numerics must be untouched; the throughput bound is deliberately loose
    # here (CI machines are noisy) — the real floor lives in the committed
    # BENCH_telemetry_gate.json the CI gate compares against.
    assert metrics["telemetry/resnet18/bit_identical"] == 1.0
    assert metrics["telemetry/resnet18/traced_fraction"] == 1.0
    assert ratio < 3.0


if __name__ == "__main__":
    test_obs_overhead(lambda name, text: print(text))
    test_serve_telemetry_overhead(lambda name, text: print(text))
