"""vgg16-b8: full-width VGG16 forwards at batch 8 through ``infer_rows``.

Why this workload: VGG16 is the paper's Table 4 model.  At 32x32 every
conv is a unit-stride Winograd conv; BatchNorm, LeakyReLU and MaxPool take
the rest.  One caller issues forwards back to back, so arithmetic
dominates and per-call overhead does not.  Weights stay at registry seed 0;
the seed draws the images.
"""

from __future__ import annotations

import time

import numpy as np

from repro import runtime
from repro.serve.registry import ModelRegistry, RegisteredModel

from ..common import (
    Context,
    Outcome,
    closed_loop,
    mean,
    overhead_frac,
    percentile,
    same_bits,
    timed_setups,
)
from ..probe import Probe, conv_flops_per_image
from ..spans import Recorder

BATCH = 8
#: Distinct seeded batches, cycled; each has its own reference output.
DISTINCT = 2
IMAGE = 32


def inputs(seed: int, quick: bool) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((BATCH, IMAGE, IMAGE, 3), dtype=np.float32) for _ in range(DISTINCT)]


def register(width_mult: float) -> RegisteredModel:
    """Set-up: build the model, compile its convs and warm it."""
    runtime.clear_cache()
    return ModelRegistry().register("vgg16", arch="vgg16", image=IMAGE, width_mult=width_mult)


def run(ctx: Context) -> Outcome:
    batches = inputs(ctx.seed, ctx.quick)
    width = 0.125 if ctx.quick else 1.0
    setup_s, entry = timed_setups(lambda: register(width), lambda _: None, ctx.setup_reps, ctx.import_s)
    with runtime.force_legacy():
        refs = [entry.infer_rows(b) for b in batches]
    flops = BATCH * conv_flops_per_image(entry)
    closed_loop(lambda: entry.infer_rows(batches[0]), ctx.warmup_s)

    recorder = Recorder() if ctx.trace else None
    probe = Probe(recorder) if ctx.trace else None
    if probe is not None:
        probe.attach_model(entry)
    times: list[float] = []
    traced: list[bool] = []
    failed = 0

    def forward() -> None:
        nonlocal failed
        i = len(times)
        on = probe is not None and i % 2 == 1
        if on:
            probe.trace(True)
        t0 = time.perf_counter()
        y = entry.infer_rows(batches[i % DISTINCT])
        times.append(time.perf_counter() - t0)
        if on:
            probe.trace(False)
            probe.absorb_obs()
        traced.append(on)
        failed += not same_bits(y, refs[i % DISTINCT])

    closed_loop(forward, ctx.seconds, min_calls=2)
    outcome = Outcome(metrics={}, attempted=len(times), failed=failed)
    outcome.notes = {"forwards": len(times), "forward_gflop": flops / 1e9}
    if probe is None:
        outcome.metrics = {
            "setup_s": setup_s,
            "gflops": flops / mean(times) / 1e9,
            "mean_ms": mean(times) * 1e3,
        }
        return outcome
    plain = [t for t, on in zip(times, traced) if not on]
    with_trace = mean(t for t, on in zip(times, traced) if on)
    metrics = probe.model_metrics()
    metrics["e2e.p50_ms"] = percentile(plain, 50) * 1e3
    metrics["e2e.p99_ms"] = percentile(plain, 99) * 1e3
    metrics["obs.trace_overhead_frac"] = overhead_frac(mean(plain), with_trace, "lower")
    probe.close()
    recorder.write(ctx.trace_path)
    outcome.metrics = metrics
    outcome.notes["attribution"] = {
        "total": "infer_rows wall time per forward",
        "unattributed_frac": metrics["dlframe.unattributed_frac"],
        "runtime_unattributed_frac": metrics["runtime.unattributed_frac"],
    }
    return outcome
