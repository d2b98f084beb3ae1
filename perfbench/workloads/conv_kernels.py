"""conv-kernels: ``repro.runtime.convolve`` in a closed loop over eight shapes.

Why this workload: it runs only the runtime's stages and the §5.5 GEMM
tail, with no model glue and no scheduling, on the paper's own r >= 3
kernels.  Each kernel appears twice: at a wide-OW Fig 8 geometry, where the
Winograd stages dominate, and at a small OW (<= 10), where boundary
segments and the GEMM tail carry a large share of the columns.  Every
shape carries 2-4 GFLOP of direct-convolution work per call.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import runtime
from repro.core.fused import conv2d_im2col_winograd
from repro.runtime import convolve

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
from ..probe import Probe
from ..spans import Recorder

#: (label, alpha, r, batch, OH = OW, IC = OC).  Wide shapes are the Fig 8
#: 64x64 geometries; small ones keep OW <= 10 with a GEMM tail where the
#: kernel's tiling leaves one (Γ16(10,7) tiles OW = 10 exactly).
SHAPES = (
    ("G8_6_3.wide", 8, 3, 8, 64, 64),
    ("G8_6_3.small", 8, 3, 48, 7, 256),
    ("G8_4_5.wide", 8, 5, 1, 64, 128),
    ("G8_4_5.small", 8, 5, 8, 10, 256),
    ("G16_10_7.wide", 16, 7, 2, 64, 64),
    ("G16_10_7.small", 16, 7, 4, 10, 256),
    ("G16_8_9.wide", 16, 9, 1, 64, 64),
    ("G16_8_9.small", 16, 9, 3, 10, 256),
)
QUICK_CHANNELS = 16


@dataclass
class Case:
    label: str
    alpha: int
    pad: int
    x: np.ndarray
    w: np.ndarray
    flops: int
    ref: np.ndarray | None = None

    def __call__(self) -> np.ndarray:
        return convolve(self.x, self.w, ph=self.pad, pw=self.pad, alpha=self.alpha)


def make_cases(seed: int, quick: bool) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for label, alpha, r, batch, hw, ch in SHAPES:
        if quick:
            batch, ch = 1, QUICK_CHANNELS
        x = rng.standard_normal((batch, hw, hw, ch), dtype=np.float32)
        w = rng.standard_normal((ch, r, r, ch), dtype=np.float32)
        flops = 2 * batch * hw * hw * ch * r * r * ch
        cases.append(Case(label, alpha, r // 2, x, w, flops))
    return cases


def inputs(seed: int, quick: bool) -> list[np.ndarray]:
    return [a for c in make_cases(seed, quick) for a in (c.x, c.w)]


def _compile(cases: list[Case]) -> None:
    """Set-up: compile every executable and transform its filters."""
    runtime.clear_cache()
    for c in cases:
        sig = runtime.ConvSignature.for_operands(c.x, c.w, ph=c.pad, pw=c.pad, alpha=c.alpha)
        runtime.get_executable(sig).filter_bundle(c.w)


def run(ctx: Context) -> Outcome:
    cases = make_cases(ctx.seed, ctx.quick)
    setup_s, _ = timed_setups(lambda: _compile(cases), lambda _: None, ctx.setup_reps, ctx.import_s)
    for c in cases:
        c.ref = conv2d_im2col_winograd(c.x, c.w, ph=c.pad, pw=c.pad, alpha=c.alpha, legacy=True)
    pass_flops = sum(c.flops for c in cases)
    closed_loop(lambda: [c() for c in cases], ctx.warmup_s)

    recorder = Recorder() if ctx.trace else None
    probe = Probe(recorder) if ctx.trace else None
    if probe is not None:
        probe.attach_runtime()
    passes: list[list[float]] = []  # per pass: seconds per shape
    traced: list[bool] = []
    failed = 0

    def one_pass() -> None:
        nonlocal failed
        on = probe is not None and len(passes) % 2 == 1
        if on:
            probe.trace(True)
        times = []
        with probe.unit("pass", rid=len(passes)) if on else nullcontext():
            for c in cases:
                t0 = time.perf_counter()
                y = c()
                t1 = time.perf_counter()
                times.append(t1 - t0)
                if on:
                    recorder.add(
                        f"convolve.{c.label}", t0, t1, parent=recorder.current(), rid=len(passes)
                    )
                failed += not same_bits(y, c.ref)
        if on:
            probe.trace(False)
            probe.absorb_obs()
        passes.append(times)
        traced.append(on)

    closed_loop(one_pass, ctx.seconds, min_calls=2)

    def gflops(rows: list[list[float]]) -> float:
        return pass_flops * len(rows) / sum(map(sum, rows)) / 1e9

    plain = [t for t, on in zip(passes, traced) if not on]
    outcome = Outcome(metrics={}, attempted=len(passes) * len(cases), failed=failed)
    outcome.notes = {"passes": len(passes), "pass_gflop": pass_flops / 1e9}
    if probe is None:
        outcome.metrics = {
            "setup_s": setup_s,
            "gflops": gflops(passes),
            "mean_ms": mean(map(sum, passes)) * 1e3,
        }
        return outcome
    on_rows = [t for t, on in zip(passes, traced) if on]
    metrics = probe.runtime_metrics(probe.units, sum(sum(t) for t in on_rows))
    for i, c in enumerate(cases):
        metrics[f"conv.{c.label}.ms"] = statistics.median(t[i] for t in plain) * 1e3
    plain_ms = [sum(t) * 1e3 for t in plain]
    metrics["e2e.p50_ms"] = percentile(plain_ms, 50)
    metrics["e2e.p99_ms"] = percentile(plain_ms, 99)
    metrics["obs.trace_overhead_frac"] = overhead_frac(gflops(plain), gflops(on_rows), "higher")
    probe.close()
    recorder.write(ctx.trace_path)
    outcome.metrics = metrics
    outcome.notes["attribution"] = {
        "total": "convolve wall time per pass",
        "unattributed_frac": metrics["runtime.unattributed_frac"],
    }
    return outcome
