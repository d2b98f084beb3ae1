"""Persistent perf baselines: capture / compare with per-metric tolerances.

The paper's claims are numeric (Gflop/s bands, conflict degrees, occupancy,
tail fractions), and the repo's model regenerates them deterministically —
which makes them regression-testable.  This module snapshots a *suite* of
those numbers into a versioned ``BENCH_<tag>.json`` file and later compares
a fresh run (or another file) against it, failing loudly when any metric
moves beyond a configurable tolerance **in its bad direction**:

* ``gflops``, occupancy, pipeline utilisation, roofline %%-of-ceiling … are
  *higher-better*: a drop is a regression, a rise is an improvement;
* ``time_ms``, bank-conflict degree, wave count, tail loss, GEMM-tail
  fractions, measured overhead … are *lower-better*: a rise regresses.

Suites
------
``smoke``
    Five pinned (device, kernel, ofm) points spanning base/ruse/c64 and both
    GPUs, profiled with :func:`repro.obs.kernelprof.profile_conv` — the full
    hardware-counter set per point.  Small enough for CI; this is what the
    committed ``BENCH_seed.json`` pins.
``fig8`` / ``fig9``
    Modeled Gflop/s of every (panel, shape) point on the Figure 8 (RTX 3060
    Ti) / Figure 9 (RTX 4090) x-axes, base and ``*`` series.
``table2``
    The Table 2 speedup-band endpoints (min/max over each panel's shapes)
    against the best cuDNN candidate.
``wallclock`` / ``wallclock-smoke``
    *Measured* (not modeled) wall-clock of the compiled-plan runtime
    (:func:`repro.runtime.convolve`) against the legacy interpreted path
    (``conv2d_im2col_winograd(..., legacy=True)``) on the Figure 8
    ``Gamma_8(6,3)`` panel geometries (batch scaled to 1 for NumPy), with a
    bit-identity check per shape.  ``wallclock-smoke`` is the four-shape CI
    subset; the committed ``BENCH_wallclock_gate.json`` pins only the
    ``speedup``/``bit_identical`` floors (1.0), so the CI gate reads "fused
    not slower than legacy, outputs bit-identical" without pinning absolute
    times to one machine.
``serve-smoke``
    *Measured* end-to-end serving throughput: a closed-loop load against
    :mod:`repro.serve` with dynamic batching (``max_batch_size=8``) vs the
    same request set served one-at-a-time (``max_batch_size=1``), plus
    p50/p99 latency, the batch-size histogram, and a ``bit_identical``
    flag comparing every batched response against its serial twin.  The
    committed ``BENCH_serve_gate.json`` pins only the machine-independent
    floors (``batch_speedup`` >= 2, ``bit_identical`` == 1), so the CI
    gate reads "dynamic batching at least doubles throughput without
    changing a single bit".
``telemetry-smoke``
    *Measured* cost of the full request-telemetry stack: the serve-smoke
    closed loop with tracing + windowed latency histograms + SLO burn-rate
    tracking enabled vs everything disabled, over the same deterministic
    request set.  Records the throughput ``overhead.ratio`` (off/on,
    lower-better), a ``bit_identical`` flag comparing every traced
    response against its untraced twin, and coverage flags (every request
    traced and server-attributed, windowed quantiles ordered).  The
    committed ``BENCH_telemetry_gate.json`` pins only the
    machine-independent floors, so the CI gate reads "telemetry changes
    no bits and costs bounded throughput".
``calib-smoke``
    *Measured* prediction accuracy of the machine-calibrated cost model
    (:mod:`repro.gpusim.calibrate`): times the pinned calibration shapes,
    fits the per-machine coefficients in memory, and records mean/max
    absolute prediction error (%) for the fitted model vs the hand-set
    analytic constants on the same measurements.  The committed
    ``BENCH_calib_gate.json`` pins only the machine-independent error-band
    ceilings and the ``improvement.ratio`` (< 1.0: fitting must beat the
    hand-set model), so the CI gate reads "calibration makes the cost
    model strictly more truthful on this machine".
``full``
    Union of all of the above (modeled suites; wall-clock and serving are
    captured separately since they are machine-dependent).

CLI::

    python -m repro.bench.baseline capture --suite smoke --tag seed
    python -m repro.bench.baseline compare --against BENCH_seed.json
    python -m repro.bench.baseline compare --against BENCH_a.json \\
        --candidate BENCH_b.json --tolerance 0.05
    python -m repro.bench.baseline list-suites

``compare`` exits non-zero iff a regression (or a metric missing from the
candidate) is found, printing a per-metric delta table either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "metric_direction",
    "write_baseline",
    "load_baseline",
    "compare_metrics",
    "suite_metrics",
    "SUITES",
    "SMOKE_POINTS",
    "main",
]

SCHEMA_VERSION = 1

#: Suffix rules deciding a metric's bad direction.  Checked in order; the
#: first list that matches wins, unknown metrics default to higher-better
#: (the common case for throughput-style numbers).
_LOWER_BETTER_SUFFIXES = (
    "time_ms",
    "us_per_call",
    "overhead",
    "ratio",
    "degree",
    "tail_loss",
    "waves",
    "phases",
    "exposed",
    "bytes",
    "gemm_tail.column_fraction",
    "gemm_tail.time_fraction",
    # Predict-vs-measure observability: prediction error (%) and drift away
    # from 1.0 both regress upward.
    "error_pct",
    "drift",
)
_HIGHER_BETTER_SUFFIXES = (
    "gflops",
    "occupancy.fraction",
    "active_warps",
    "utilisation",
    "pct_of_ceiling",
    "tail_efficiency",
    "speedup_min",
    "speedup_max",
    "speedup",
    "bit_identical",
)


def metric_direction(name: str) -> str:
    """``"lower"`` or ``"higher"`` — the direction in which ``name`` is good."""
    for suffix in _LOWER_BETTER_SUFFIXES:
        if name.endswith(suffix):
            return "lower"
    for suffix in _HIGHER_BETTER_SUFFIXES:
        if name.endswith(suffix):
            return "higher"
    return "higher"


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------


def write_baseline(
    path: str | Path, metrics: dict[str, float], *, tag: str, suite: str
) -> Path:
    """Write ``metrics`` as a versioned baseline file and return its path."""
    path = Path(path)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "suite": suite,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "metrics": {k: float(v) for k, v in sorted(metrics.items())},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: str | Path) -> dict[str, object]:
    """Load and validate one ``BENCH_*.json`` document."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(doc.get("metrics"), dict) or not doc["metrics"]:
        raise ValueError(f"{path}: no metrics recorded")
    return doc


# --------------------------------------------------------------------------
# Compare
# --------------------------------------------------------------------------


def compare_metrics(
    baseline: dict[str, float],
    candidate: dict[str, float],
    *,
    tolerance: float = 0.02,
) -> tuple[list[list[str]], int]:
    """Per-metric delta table plus the number of regressions.

    A baseline metric missing from the candidate counts as a regression
    (the suite shrank silently); metrics only in the candidate are reported
    as ``new`` and never fail the comparison.
    """
    from .harness import fmt_delta

    rows: list[list[str]] = []
    regressions = 0
    for name in sorted(baseline):
        base = baseline[name]
        direction = metric_direction(name)
        if name not in candidate:
            regressions += 1
            rows.append([name, f"{base:.6g}", "-", "-", direction, "MISSING"])
            continue
        cand = candidate[name]
        if base != 0:
            delta = (cand - base) / abs(base)
            delta_txt = fmt_delta(delta)
            bad = delta < -tolerance if direction == "higher" else delta > tolerance
        else:
            delta = cand - base
            delta_txt = fmt_delta(delta, relative=False)
            bad = abs(delta) > tolerance
        if bad:
            regressions += 1
            status = "REGRESSED"
        elif (delta > 0) == (direction == "higher") and delta != 0:
            status = "improved"
        else:
            status = "ok"
        rows.append([name, f"{base:.6g}", f"{cand:.6g}", delta_txt, direction, status])
    for name in sorted(set(candidate) - set(baseline)):
        rows.append([name, "-", f"{candidate[name]:.6g}", "-", metric_direction(name), "new"])
    return rows, regressions


# --------------------------------------------------------------------------
# Suites
# --------------------------------------------------------------------------

#: The pinned smoke points: (device key, alpha, r, variant, (N, OH, OW, OC)).
#: One per kernel family the paper evaluates, both GPUs covered, all shapes
#: taken from the Figure 8/9 x-axes.
SMOKE_POINTS: tuple[tuple[str, int, int, str, tuple[int, int, int, int]], ...] = (
    ("RTX3060Ti", 8, 3, "base", (64, 128, 128, 64)),
    ("RTX3060Ti", 8, 5, "ruse", (32, 66, 66, 128)),
    ("RTX3060Ti", 16, 9, "c64", (32, 96, 96, 64)),
    ("RTX4090", 8, 3, "base", (128, 96, 96, 64)),
    ("RTX4090", 16, 7, "base", (64, 120, 120, 64)),
)


def _smoke_metrics() -> dict[str, float]:
    from ..gpusim.device import DEVICES
    from ..nhwc.tensor import ConvShape
    from ..obs.kernelprof import profile_conv

    out: dict[str, float] = {}
    for dev_key, alpha, r, variant, (n, oh, ow, oc) in SMOKE_POINTS:
        shape = ConvShape.from_ofm(n, oh, ow, oc, r=r)
        profile = profile_conv(shape, DEVICES[dev_key], alpha=alpha, variant=variant)
        prefix = f"smoke/{dev_key}/g{alpha}r{r}_{variant}/{n}x{oh}x{ow}x{oc}"
        out.update(profile.metrics(prefix))
    return out


def _figure_metrics(fig: str) -> dict[str, float]:
    from ..gpusim import RTX3060TI, RTX4090, estimate_conv
    from .shapes import FIG8_PANELS, FIG9_PANELS, panel_shapes

    device, panels = (
        (RTX3060TI, FIG8_PANELS) if fig == "fig8" else (RTX4090, FIG9_PANELS)
    )
    out: dict[str, float] = {}
    for name, panel in panels.items():
        for shape, a in panel_shapes(panel):
            ofm = f"{shape.batch}x{shape.oh}x{shape.ow}x{shape.oc}"
            base = estimate_conv(shape, device, alpha=a, variant="base")
            star = estimate_conv(
                shape, device, alpha=a, variant="base", include_filter_transpose=False
            )
            out[f"{fig}/{name}/{ofm}/gflops"] = base.gflops
            out[f"{fig}/{name}/{ofm}/star.gflops"] = star.gflops
    return out


def _table2_metrics() -> dict[str, float]:
    from ..gpusim import (
        RTX3060TI,
        RTX4090,
        estimate_conv,
        estimate_cudnn_fused_winograd,
        estimate_cudnn_gemm,
    )
    from .shapes import FIG8_PANELS, FIG9_PANELS, panel_shapes

    out: dict[str, float] = {}
    for device, panels in ((RTX3060TI, FIG8_PANELS), (RTX4090, FIG9_PANELS)):
        for name, panel in panels.items():
            _, r, _ = panel
            ratios = []
            for shape, a in panel_shapes(panel):
                ours = estimate_conv(shape, device, alpha=a, variant="base").gflops
                cands = [
                    estimate_cudnn_gemm(shape, device, layout="nhwc").gflops,
                    estimate_cudnn_gemm(shape, device, layout="nchw").gflops,
                ]
                if r == 3:
                    cands.append(estimate_cudnn_fused_winograd(shape, device).gflops)
                ratios.append(ours / max(cands))
            out[f"table2/{name}/{device.name}/speedup_min"] = min(ratios)
            out[f"table2/{name}/{device.name}/speedup_max"] = max(ratios)
    return out


def _full_metrics() -> dict[str, float]:
    out = _smoke_metrics()
    out.update(_figure_metrics("fig8"))
    out.update(_figure_metrics("fig9"))
    out.update(_table2_metrics())
    return out


#: Repetitions per (shape, path) wall-clock measurement; the median rep is
#: recorded (robust against scheduler noise on shared CI runners).
WALLCLOCK_REPS = 5

#: Indices into the Figure 8 ``Gamma_8(6,3)`` panel used by the CI smoke
#: subset — one shape per channel depth, each legacy-side < ~150 ms.
WALLCLOCK_SMOKE_INDICES = (2, 4, 6, 8)


def wallclock_shapes() -> list[tuple[int, int, int, int]]:
    """The Figure 8 ``Gamma_8(6,3)`` geometries as ``(N, IH, IW, C)``.

    Spatial dims and channel depths are the paper's (ofm == ifm for 3x3
    same-padding); the batch is scaled to 1 so the NumPy measurement stays
    CI-sized.  ``IC == OC`` on this panel.
    """
    from .shapes import FIG8_PANELS

    _, _, ofms = FIG8_PANELS["Gamma_8(6,3)"]
    return [(1, oh, ow, oc) for (_, oh, ow, oc) in ofms]


def _wallclock_metrics(
    indices: tuple[int, ...] | None = None, reps: int = WALLCLOCK_REPS
) -> dict[str, float]:
    """Measured fused-vs-legacy wall-clock on the Fig 8 3x3 shapes.

    Per shape: median-of-``reps`` wall-clock of the legacy interpreted path
    (as shipped before the runtime: re-planned per call, default channel
    blocking) and of the compiled runtime (warm executable cache — the
    compile-once-execute-many regime the plan cache exists for), the
    ``speedup`` ratio, and a ``bit_identical`` flag comparing the runtime
    output against the legacy path.  Both sides run at their defaults,
    which share the same channel blocking (``DEFAULT_BLOCK_IC``, full depth)
    and row blocks, hence the same accumulation order: the flag asserts
    exact bit equality of what callers actually get.
    """
    import statistics

    import numpy as np

    from .. import runtime
    from ..core.fused import conv2d_im2col_winograd
    from .harness import measure_ns

    def median_ms(fn) -> float:
        # One warm-up rep covers executable compile + filter transform on
        # the first call; measure_ns is the repo-wide perf_counter_ns
        # convention (see repro.bench.harness).
        return measure_ns(fn, reps=reps, warmup=1).median_ms

    shapes = wallclock_shapes()
    if indices is not None:
        shapes = [shapes[i] for i in indices]
    rng = np.random.default_rng(20240806)
    out: dict[str, float] = {}
    speedups: list[float] = []
    all_exact = 1.0
    for batch, ih, iw, c in shapes:
        x = rng.standard_normal((batch, ih, iw, c)).astype(np.float32)
        w = rng.standard_normal((c, 3, 3, c)).astype(np.float32)
        ref = conv2d_im2col_winograd(x, w, alpha=8, legacy=True)
        got = runtime.convolve(x, w, alpha=8)
        exact = float(np.array_equal(ref, got))
        t_legacy = median_ms(lambda: conv2d_im2col_winograd(x, w, alpha=8, legacy=True))
        t_fused = median_ms(lambda: runtime.convolve(x, w, alpha=8))
        speedup = t_legacy / t_fused
        speedups.append(speedup)
        all_exact = min(all_exact, exact)
        prefix = f"wallclock/g8n6r3/{batch}x{ih}x{iw}x{c}"
        out[f"{prefix}/legacy_time_ms"] = t_legacy
        out[f"{prefix}/fused_time_ms"] = t_fused
        out[f"{prefix}/speedup"] = speedup
        out[f"{prefix}/bit_identical"] = exact
    out["wallclock/median_speedup"] = statistics.median(speedups)
    out["wallclock/bit_identical"] = all_exact
    return out


#: serve-smoke load shape: enough requests for several full batches, small
#: enough for CI.  Concurrency 16 keeps the 8-row buckets saturated.
SERVE_SMOKE_REQUESTS = 48
SERVE_SMOKE_MAX_BATCH = 8
SERVE_SMOKE_CONCURRENCY = 16


def _serve_metrics() -> dict[str, float]:
    """Measured dynamic-batching vs serial serving on resnet18 (w=0.125).

    Two closed loops over the *same* deterministic request set (payloads
    seeded per request id): one through the dynamic batcher, one with
    ``max_batch_size=1`` — the serving twin of the wallclock suite's
    fused-vs-legacy comparison.  ``batch_speedup`` is the throughput ratio
    and ``bit_identical`` asserts every batched response equals its serial
    counterpart exactly.  Serial dispatch runs 1-row forwards unpadded, so
    the flag rests on the row-block contract of :mod:`repro.core.rowblocks`:
    no row's bits depend on the batch it shares.
    """
    import asyncio

    import numpy as np

    from ..serve import BatchPolicy, InferenceService, SchedulerConfig, closed_loop

    async def run(max_batch: int, concurrency: int):
        service = InferenceService(
            config=SchedulerConfig(
                policy=BatchPolicy(max_batch_size=max_batch, max_queue_delay_ms=2.0),
                default_timeout_ms=None,
            )
        )
        service.registry.register("resnet18", width_mult=0.125)
        async with service:
            return await closed_loop(
                service,
                "resnet18",
                requests=SERVE_SMOKE_REQUESTS,
                concurrency=concurrency,
                collect_outputs=True,
            )

    batched = asyncio.run(run(SERVE_SMOKE_MAX_BATCH, SERVE_SMOKE_CONCURRENCY))
    serial = asyncio.run(run(1, 1))
    if batched.errors or serial.errors:
        raise RuntimeError(
            f"serve-smoke runs must complete cleanly, got errors "
            f"batched={batched.errors} serial={serial.errors}"
        )
    bit_identical = float(
        batched.outputs.keys() == serial.outputs.keys()
        and all(
            np.array_equal(batched.outputs[rid], serial.outputs[rid])
            for rid in batched.outputs
        )
    )
    out: dict[str, float] = {}
    for label, result in (("batched", batched), ("serial", serial)):
        prefix = f"serve/resnet18/{label}"
        out[f"{prefix}.requests_per_sec"] = result.requests_per_sec
        out[f"{prefix}.p50.time_ms"] = result.latency_ms(50)
        out[f"{prefix}.p99.time_ms"] = result.latency_ms(99)
        out[f"{prefix}.mean_batch_size"] = result.mean_batch_size
        for size, count in sorted(result.batch_size_histogram.items()):
            out[f"{prefix}.batch_hist.{size}"] = float(count)
    out["serve/resnet18/batch_speedup"] = (
        batched.requests_per_sec / serial.requests_per_sec
        if serial.requests_per_sec
        else 0.0
    )
    out["serve/resnet18/bit_identical"] = bit_identical
    return out


def _telemetry_metrics() -> dict[str, float]:
    """Measured telemetry-on vs telemetry-off serving on resnet18 (w=0.125).

    The serve-smoke closed loop twice over the same deterministic request
    set and batching policy: once with the full observability stack on
    (obs spans, request traces fanning into batch traces, windowed latency
    histograms, a tight-but-passing SLO tracker) and once with everything
    off.  ``overhead.ratio`` is off-throughput / on-throughput — 1.0 means
    telemetry is free, and the committed gate bounds how far above 1.0 CI
    tolerates.  ``bit_identical`` asserts instrumentation never touches
    the numerics; the coverage flags assert the telemetry actually
    happened (every completed request traced and server-attributed,
    windowed p50 <= p99 over a non-empty window).
    """
    import asyncio

    import numpy as np

    from .. import obs
    from ..obs.metrics import get_registry
    from ..obs.slo import SLOConfig
    from ..serve import BatchPolicy, InferenceService, SchedulerConfig, closed_loop

    async def run(telemetry_on: bool):
        slo = (
            SLOConfig(latency_target_ms=10_000.0, error_rate_target=0.01)
            if telemetry_on
            else None
        )
        service = InferenceService(
            config=SchedulerConfig(
                policy=BatchPolicy(
                    max_batch_size=SERVE_SMOKE_MAX_BATCH, max_queue_delay_ms=2.0
                ),
                default_timeout_ms=None,
                slo=slo,
            )
        )
        service.registry.register("resnet18", width_mult=0.125)
        async with service:
            return await closed_loop(
                service,
                "resnet18",
                requests=SERVE_SMOKE_REQUESTS,
                concurrency=SERVE_SMOKE_CONCURRENCY,
                collect_outputs=True,
            )

    was_enabled = obs.enabled()
    try:
        obs.disable()
        off = asyncio.run(run(False))
        obs.enable()
        on = asyncio.run(run(True))
    finally:
        obs.enable() if was_enabled else obs.disable()
    if on.errors or off.errors:
        raise RuntimeError(
            f"telemetry-smoke runs must complete cleanly, got errors "
            f"on={on.errors} off={off.errors}"
        )
    bit_identical = float(
        on.outputs.keys() == off.outputs.keys()
        and all(np.array_equal(on.outputs[rid], off.outputs[rid]) for rid in on.outputs)
    )
    hist = get_registry().get("serve.latency.window_ms")
    if hist is not None and hasattr(hist, "quantile"):
        p50 = hist.quantile(0.50, model="resnet18")
        p99 = hist.quantile(0.99, model="resnet18")
        quantiles_ok = float(0.0 < p50 <= p99)
    else:
        p50 = p99 = 0.0
        quantiles_ok = 0.0
    out: dict[str, float] = {}
    for label, result in (("on", on), ("off", off)):
        prefix = f"telemetry/resnet18/{label}"
        out[f"{prefix}.requests_per_sec"] = result.requests_per_sec
        out[f"{prefix}.p50.time_ms"] = result.latency_ms(50)
        out[f"{prefix}.p99.time_ms"] = result.latency_ms(99)
    out["telemetry/resnet18/overhead.ratio"] = (
        off.requests_per_sec / on.requests_per_sec if on.requests_per_sec else float("inf")
    )
    out["telemetry/resnet18/bit_identical"] = bit_identical
    out["telemetry/resnet18/traced_fraction"] = (
        len(on.trace_ids) / on.completed if on.completed else 0.0
    )
    out["telemetry/resnet18/attributed_fraction"] = (
        len(on.queued_ms) / on.completed if on.completed else 0.0
    )
    out["telemetry/resnet18/window.p50.time_ms"] = p50
    out["telemetry/resnet18/window.p99.time_ms"] = p99
    out["telemetry/resnet18/window_quantiles_ordered"] = quantiles_ok
    return out


#: Repetitions per calib-smoke shape measurement (median recorded).
CALIB_SMOKE_REPS = 3


def _calib_metrics() -> dict[str, float]:
    """Measured prediction accuracy of the machine-calibrated cost model.

    Times the :data:`~repro.gpusim.calibrate.CALIB_SMOKE_SHAPES` convs on
    this machine, fits the per-machine coefficients in memory (nothing is
    activated or persisted — capture has no side effects on the process's
    cost model), and records the mean/max absolute prediction error (%) of
    the fitted model next to the hand-set analytic constants on the very
    same measurements.  ``improvement.ratio`` is calibrated mean error over
    uncalibrated mean error: < 1.0 means fitting beat the hand-set model,
    and the committed ``BENCH_calib_gate.json`` pins machine-independent
    ceilings on the error band rather than absolute nanoseconds.
    """
    from ..gpusim import calibrate

    samples = calibrate.measure_suite(reps=CALIB_SMOKE_REPS)
    model = calibrate.fit(samples)
    out: dict[str, float] = {}
    for s in samples:
        out[f"calib/{s.label}/error_pct"] = calibrate.prediction_error_pct(model, s)
    stats = model.stats
    cal_mean = float(stats["mean_abs_error_pct"])
    uncal_mean = float(stats["uncalibrated_mean_abs_error_pct"])
    out["calib/calibrated.mean_abs_error_pct"] = cal_mean
    out["calib/calibrated.max_abs_error_pct"] = float(stats["max_abs_error_pct"])
    out["calib/uncalibrated.mean_abs_error_pct"] = uncal_mean
    out["calib/uncalibrated.max_abs_error_pct"] = float(
        stats["uncalibrated_max_abs_error_pct"]
    )
    out["calib/improvement.ratio"] = cal_mean / uncal_mean if uncal_mean > 0 else 0.0
    out["calib/fitted"] = float(model.fitted)
    return out


SUITES = {
    "smoke": _smoke_metrics,
    "fig8": lambda: _figure_metrics("fig8"),
    "fig9": lambda: _figure_metrics("fig9"),
    "table2": _table2_metrics,
    "wallclock": _wallclock_metrics,
    "wallclock-smoke": lambda: _wallclock_metrics(WALLCLOCK_SMOKE_INDICES),
    "serve-smoke": _serve_metrics,
    "telemetry-smoke": _telemetry_metrics,
    "calib-smoke": _calib_metrics,
    "full": _full_metrics,
}


def suite_metrics(suite: str) -> dict[str, float]:
    """Recompute the metric set of one named suite."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    return SUITES[suite]()


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.baseline",
        description="Capture / compare persistent perf baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capture", help="snapshot a suite into BENCH_<tag>.json")
    cap.add_argument("--suite", default="smoke", choices=sorted(SUITES))
    cap.add_argument("--tag", default="local", help="baseline tag (file name part)")
    cap.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file (default: ./BENCH_<tag>.json)",
    )

    cmp_ = sub.add_parser("compare", help="compare current numbers against a baseline")
    cmp_.add_argument("--against", required=True, metavar="PATH", help="baseline file")
    cmp_.add_argument(
        "--candidate",
        default=None,
        metavar="PATH",
        help="compare this BENCH file instead of recomputing the suite",
    )
    cmp_.add_argument(
        "--suite",
        default=None,
        choices=sorted(SUITES),
        help="override the suite recorded in the baseline file",
    )
    cmp_.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="allowed relative move in the bad direction (default 0.02 = 2%%)",
    )

    sub.add_parser("list-suites", help="list the capturable suites")

    args = parser.parse_args(argv)

    if args.command == "list-suites":
        for name in sorted(SUITES):
            print(name)
        return 0

    if args.command == "capture":
        metrics = suite_metrics(args.suite)
        out = args.out or f"BENCH_{args.tag}.json"
        path = write_baseline(out, metrics, tag=args.tag, suite=args.suite)
        print(f"[baseline] captured {len(metrics)} metrics ({args.suite}) -> {path}")
        return 0

    # compare
    try:
        base_doc = load_baseline(args.against)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load baseline: {exc}", file=sys.stderr)
        return 2
    if args.candidate:
        try:
            cand_doc = load_baseline(args.candidate)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load candidate: {exc}", file=sys.stderr)
            return 2
        cand_metrics = cand_doc["metrics"]
        cand_label = str(args.candidate)
    else:
        suite = args.suite or str(base_doc.get("suite", "smoke"))
        try:
            cand_metrics = suite_metrics(suite)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cand_label = f"recomputed suite {suite!r}"

    from .harness import banner, table

    rows, regressions = compare_metrics(
        base_doc["metrics"], cand_metrics, tolerance=args.tolerance
    )
    print(
        banner(
            f"Baseline compare — {args.against} (tag {base_doc.get('tag')!r}) "
            f"vs {cand_label}",
            f"tolerance ±{args.tolerance:.1%} in each metric's bad direction",
        )
    )
    print(table(["metric", "baseline", "candidate", "delta", "good dir", "status"], rows))
    flagged = [r for r in rows if r[-1] in ("REGRESSED", "MISSING")]
    if regressions:
        print(f"\n[baseline] FAIL: {regressions} metric(s) regressed or missing:")
        for r in flagged:
            print(f"  - {r[0]} ({r[-1]}, baseline {r[1]}, candidate {r[2]})")
        return 1
    print(f"\n[baseline] OK: {len(rows)} metric(s) within ±{args.tolerance:.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
