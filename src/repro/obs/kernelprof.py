"""Nsight-Compute-style per-kernel-launch profiler over the gpusim substrate.

``repro.gpusim`` computes every hardware quantity the paper argues with —
achieved occupancy and its limiter (§4.1/§5.4), SMEM bank-conflict degree
under the §5.2 layouts, wave counts and tail quantisation (§5.1),
arithmetic intensity (§5.6) and the §5.5 GEMM-tail composition — but as
scattered internals.  This module assembles them, for any planned
convolution, into one per-launch report the way ``ncu`` presents a kernel:

* **Launch & waves** — grid decomposition, blocks, iterations, wave count
  and the throughput lost to the final partial wave;
* **Occupancy** — blocks/SM, active warps, achieved fraction and the
  *limiter* (smem / registers / threads / blocks) with the full
  per-resource cap table;
* **SMEM bank conflicts** — per transform stage (main-loop stores +
  outer-product loads, and the ``Ys`` output staging), each reported with
  the paper's mitigation ON (swizzle / padding / Z-lanes) against the naive
  layout, so the conflict degree *and what bought it* are visible;
* **Pipeline** — the §5.1 double-buffer breakdown from
  :mod:`repro.gpusim.timeline`: outer-product vs load vs transform cycles,
  issue utilisation and exposed latency per iteration;
* **Roofline** — §5.6 arithmetic intensity placed under the device roofline
  (:mod:`repro.obs.rooflineview`) with % of the binding ceiling;
* **GEMM tail** — column and time fraction of the §5.5 boundary tail.

Every number is taken from (or recomputed identically to) the perfmodel /
smem / blocking / timeline modules — the profiler adds no model of its own,
so tests can assert exact agreement.  While :mod:`repro.obs` is enabled the
profiler also emits its quantities as ``kprof.*`` gauges/counters, which the
Chrome-trace exporter merges into the span stream as counter tracks.

With ``--measure`` the profiler additionally *runs* the convolution on
this machine (the compiled NumPy runtime) and appends a section with the
modeled device time beside the measured median and min wallclock.  The
two clocks are different machines (a modeled GPU, this host's BLAS), so
no error is computed between them.

CLI::

    python -m repro.obs.kernelprof --device rtx4090 --variant g8n6r3 \\
        --shape 128x96x96x64 [--star] [--json] [--trace-json out.json] \\
        [--measure [--measure-reps 5]]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field

from ..core.planner import ConvPlan, plan_convolution
from ..core.variants import VariantSpec
from ..gpusim.device import DeviceSpec
from ..gpusim.perfmodel import PerfEstimate, estimate_conv
from ..gpusim.timeline import simulate_block_timeline
from ..gpusim.trace import simulate_block_iteration, simulate_output_stage
from ..nhwc.tensor import ConvShape
from .metrics import counter_add, gauge_set
from .rooflineview import RooflinePoint, render_roofline, resolve_device, roofline_point
from .tracer import span

__all__ = [
    "SmemStageProfile",
    "LaunchProfile",
    "ConvProfile",
    "profile_conv",
    "measure_conv",
    "parse_kernel_token",
    "parse_ofm_token",
    "main",
]


@dataclass(frozen=True)
class SmemStageProfile:
    """Bank-conflict accounting of one SMEM transform stage.

    ``phases``/``ideal_phases`` come from the §5.2 layout the kernel ships
    (mitigation ON); ``naive_phases`` replays the same stage with the
    mitigation OFF (linear lanes, no swizzle, no padding).
    """

    stage: str  # "main_loop" or "output_staging"
    mitigation: str
    phases: int
    ideal_phases: int
    naive_phases: int

    @property
    def degree(self) -> float:
        """Average transaction phases per conflict-free phase (1.0 = ideal)."""
        return self.phases / self.ideal_phases

    @property
    def naive_degree(self) -> float:
        return self.naive_phases / self.ideal_phases

    @property
    def mitigation_speedup(self) -> float:
        """Phase reduction the paper's layout buys at this stage."""
        return self.naive_phases / self.phases

    def as_dict(self) -> dict[str, object]:
        return {
            "stage": self.stage,
            "mitigation": self.mitigation,
            "phases": self.phases,
            "ideal_phases": self.ideal_phases,
            "naive_phases": self.naive_phases,
            "degree": self.degree,
            "naive_degree": self.naive_degree,
            "mitigation_speedup": self.mitigation_speedup,
        }


@dataclass(frozen=True)
class LaunchProfile:
    """One kernel launch (= one §5.5 width segment) fully characterised.

    ``grid``/``pipeline``/``roofline`` are ``None`` for the GEMM tail
    launch, which has no Winograd blocking to introspect.
    """

    kernel: str
    width: int
    time_ms: float
    compute_time_ms: float
    mem_time_ms: float
    actual_gflop: float
    bound: str
    grid: dict | None = None
    smem: tuple[SmemStageProfile, ...] = field(default_factory=tuple)
    pipeline: dict | None = None
    intensity: float | None = None
    roofline: RooflinePoint | None = None

    @property
    def achieved_gflops(self) -> float:
        """Actual (not paper-metric) arithmetic rate of this launch."""
        return self.actual_gflop / (self.time_ms * 1e-3)

    def as_dict(self) -> dict[str, object]:
        return {
            "kernel": self.kernel,
            "width": self.width,
            "time_ms": self.time_ms,
            "compute_time_ms": self.compute_time_ms,
            "mem_time_ms": self.mem_time_ms,
            "actual_gflop": self.actual_gflop,
            "achieved_gflops": self.achieved_gflops,
            "bound": self.bound,
            "grid": self.grid,
            "smem": [s.as_dict() for s in self.smem],
            "pipeline": self.pipeline,
            "intensity_flop_per_byte": self.intensity,
            "roofline": self.roofline.as_dict() if self.roofline else None,
        }


@dataclass(frozen=True)
class ConvProfile:
    """Profiler output for one full convolution on one device."""

    device: str
    shape: ConvShape
    algorithm: str
    time_ms: float
    gflops: float  # paper metric: standard-conv FLOPs / time
    launches: tuple[LaunchProfile, ...]
    gemm_tail_column_fraction: float
    gemm_tail_time_fraction: float

    @property
    def primary(self) -> LaunchProfile:
        """The leading (widest Winograd) launch."""
        winograd = [l for l in self.launches if l.grid is not None]
        return winograd[0] if winograd else self.launches[0]

    def as_dict(self) -> dict[str, object]:
        return {
            "device": self.device,
            "shape": {
                "batch": self.shape.batch,
                "ih": self.shape.ih,
                "iw": self.shape.iw,
                "ic": self.shape.ic,
                "oc": self.shape.oc,
                "fh": self.shape.fh,
                "fw": self.shape.fw,
                "ph": self.shape.ph,
                "pw": self.shape.pw,
                "stride": self.shape.stride,
                "ofm": f"{self.shape.batch}x{self.shape.oh}x{self.shape.ow}x{self.shape.oc}",
            },
            "algorithm": self.algorithm,
            "time_ms": self.time_ms,
            "gflops": self.gflops,
            "gemm_tail_column_fraction": self.gemm_tail_column_fraction,
            "gemm_tail_time_fraction": self.gemm_tail_time_fraction,
            "launches": [l.as_dict() for l in self.launches],
        }

    def metrics(self, prefix: str) -> dict[str, float]:
        """Flat ``name -> value`` map for the perf-baseline store."""
        out = {
            f"{prefix}/time_ms": self.time_ms,
            f"{prefix}/gflops": self.gflops,
            f"{prefix}/gemm_tail.column_fraction": self.gemm_tail_column_fraction,
            f"{prefix}/gemm_tail.time_fraction": self.gemm_tail_time_fraction,
        }
        lead = self.primary
        if lead.grid is not None:
            occ = lead.grid["occupancy"]
            out[f"{prefix}/occupancy.fraction"] = occ["occupancy"]
            out[f"{prefix}/occupancy.active_warps"] = float(occ["active_warps"])
            out[f"{prefix}/waves"] = float(lead.grid["waves"])
            out[f"{prefix}/tail_loss"] = lead.grid["tail_loss"]
            for stage in lead.smem:
                out[f"{prefix}/smem.{stage.stage}.degree"] = stage.degree
            out[f"{prefix}/pipeline.utilisation"] = lead.pipeline["utilisation"]
            out[f"{prefix}/roofline.pct_of_ceiling"] = lead.roofline.pct_of_ceiling
        return out

    def render(self) -> str:
        """The full Nsight-style text report."""
        from ..bench.harness import banner, table

        sh = self.shape
        lines = [
            banner(
                f"Kernel profile — {self.algorithm} on {self.device}",
                f"ofm {sh.batch}x{sh.oh}x{sh.ow}x{sh.oc}, filter "
                f"{sh.fh}x{sh.fw}, IC={sh.ic}  |  {self.time_ms:.4f} ms, "
                f"{self.gflops:,.0f} Gflop/s (paper metric)",
            )
        ]

        lines.append("")
        lines.append(banner("Launches & waves (§5.1/§5.5)"))
        rows = []
        for l in self.launches:
            g = l.grid
            rows.append(
                [
                    l.kernel,
                    l.width,
                    f"{l.time_ms:.4f}",
                    l.bound,
                    g["blocks"] if g else "-",
                    g["waves"] if g else "-",
                    f"{g['tail_loss']:.1%}" if g else "-",
                    g["iterations"] if g else "-",
                ]
            )
        lines.append(
            table(
                ["launch", "cols", "time ms", "bound", "blocks", "waves", "tail loss", "iters"],
                rows,
            )
        )
        lines.append(
            f"GEMM tail: {self.gemm_tail_column_fraction:.1%} of columns, "
            f"{self.gemm_tail_time_fraction:.1%} of time"
        )

        lines.append("")
        lines.append(banner("Occupancy (§4.1)"))
        rows = []
        for l in self.launches:
            if l.grid is None:
                continue
            occ = l.grid["occupancy"]
            caps = ", ".join(f"{k}={v}" for k, v in sorted(occ["limits"].items()))
            rows.append(
                [
                    l.kernel,
                    occ["blocks_per_sm"],
                    occ["active_warps"],
                    f"{occ['occupancy']:.1%}",
                    occ["limiter"],
                    caps,
                ]
            )
        lines.append(
            table(
                ["launch", "blocks/SM", "warps/SM", "achieved occ", "limiter", "per-resource caps"],
                rows,
            )
        )

        lines.append("")
        lines.append(banner("SMEM bank conflicts per transform stage (§5.2)"))
        rows = []
        for l in self.launches:
            for s in l.smem:
                rows.append(
                    [
                        l.kernel,
                        s.stage,
                        f"{s.degree:.2f}",
                        f"{s.naive_degree:.2f}",
                        f"{s.mitigation_speedup:.2f}x",
                        s.mitigation,
                    ]
                )
        lines.append(
            table(
                ["launch", "stage", "degree", "naive degree", "saving", "mitigation"],
                rows,
            )
        )

        lines.append("")
        lines.append(banner("Main-loop pipeline (§5.1 double buffering)"))
        rows = []
        for l in self.launches:
            if l.pipeline is None:
                continue
            p = l.pipeline
            rows.append(
                [
                    l.kernel,
                    "yes" if p["double_buffered"] else "no",
                    f"{p['cycles_per_iteration']:.0f}",
                    f"{p['compute_cycles']:.0f}",
                    f"{p['load_cycles']:.0f}",
                    f"{p['transform_cycles']:.0f}",
                    f"{p['exposed_latency']:.0f}",
                    f"{p['utilisation']:.1%}",
                ]
            )
        lines.append(
            table(
                [
                    "launch",
                    "dbl-buf",
                    "cyc/iter",
                    "outer-product",
                    "tile load",
                    "transform",
                    "exposed",
                    "utilisation",
                ],
                rows,
            )
        )

        lines.append("")
        lines.append(banner("Roofline placement (§5.6 arithmetic intensity)"))
        points = [l.roofline for l in self.launches if l.roofline is not None]
        from ..gpusim.device import DEVICES

        lines.append(render_roofline(DEVICES[self.device], points))
        return "\n".join(lines)


def _smem_stages(spec: VariantSpec) -> tuple[SmemStageProfile, ...]:
    """Replay both §5.2 transform stages with the mitigation on and off."""
    main_on = simulate_block_iteration(spec, swizzle_ds=True, z_lanes=True)
    main_off = simulate_block_iteration(spec, swizzle_ds=False, z_lanes=False)
    out_on = simulate_output_stage(spec, padded=True)
    out_off = simulate_output_stage(spec, padded=False)
    main_mitigation = (
        "+4 Ds padding + Z-lanes" if spec.alpha == 16 else "Xi swizzle + Z-lanes"
    )
    return (
        SmemStageProfile(
            stage="main_loop",
            mitigation=main_mitigation,
            phases=main_on.phases,
            ideal_phases=main_on.ideal_phases,
            naive_phases=main_off.phases,
        ),
        SmemStageProfile(
            stage="output_staging",
            mitigation="Ys last-dim padding",
            phases=out_on.phases,
            ideal_phases=out_on.ideal_phases,
            naive_phases=out_off.phases,
        ),
    )


def profile_conv(
    shape: ConvShape,
    device: DeviceSpec,
    *,
    alpha: int | None = None,
    variant: str | None = None,
    include_filter_transpose: bool = True,
    plan: ConvPlan | None = None,
) -> ConvProfile:
    """Assemble the full per-launch profile of one planned convolution.

    Raises
    ------
    ValueError
        If the planner routes the problem to plain GEMM (non-unit stride,
        unsupported width, oversized padding) — there is no Gamma launch to
        profile; the error carries the planner's reason.
    """
    if plan is None:
        plan = plan_convolution(shape, alpha=alpha, variant=variant)
    if plan.algorithm != "im2col-winograd":
        raise ValueError(f"planner refused Winograd for this problem: {plan.reason}")

    with span("kernelprof", device=device.name, ow=shape.ow) as sp:
        est: PerfEstimate = estimate_conv(
            shape,
            device,
            include_filter_transpose=include_filter_transpose,
            plan=plan,
        )
        launches: list[LaunchProfile] = []
        for seg_plan, seg_est in zip(plan.segments, est.segments):
            bound = "compute" if seg_est.compute_time_ms >= seg_est.mem_time_ms else "memory"
            if seg_plan.is_gemm:
                launches.append(
                    LaunchProfile(
                        kernel="GEMM",
                        width=seg_est.width,
                        time_ms=seg_est.time_ms,
                        compute_time_ms=seg_est.compute_time_ms,
                        mem_time_ms=seg_est.mem_time_ms,
                        actual_gflop=seg_est.actual_gflop,
                        bound=bound,
                    )
                )
                continue
            spec = seg_plan.kernel.spec  # type: ignore[union-attr]
            grid = seg_est.grid
            assert grid is not None
            smem = _smem_stages(spec)
            pipe = simulate_block_timeline(
                spec, grid.iterations, resident_blocks=grid.occupancy.blocks_per_sm
            )
            pipeline = {**pipe.as_dict(), "double_buffered": spec.double_buffered}
            achieved = seg_est.actual_gflop / (seg_est.time_ms * 1e-3)
            point = roofline_point(device, spec.intensity, achieved, label=spec.name)
            launches.append(
                LaunchProfile(
                    kernel=spec.name,
                    width=seg_est.width,
                    time_ms=seg_est.time_ms,
                    compute_time_ms=seg_est.compute_time_ms,
                    mem_time_ms=seg_est.mem_time_ms,
                    actual_gflop=seg_est.actual_gflop,
                    bound=bound,
                    grid=grid.as_dict(),
                    smem=smem,
                    pipeline=pipeline,
                    intensity=spec.intensity,
                    roofline=point,
                )
            )
            # kprof.* counter stream: merged into the Chrome trace as
            # counter tracks whenever obs is enabled.
            gauge_set(
                "kprof.occupancy", grid.occupancy.occupancy,
                kernel=spec.name, device=device.name,
            )
            gauge_set(
                "kprof.occupancy_warps", grid.occupancy.active_warps,
                kernel=spec.name, device=device.name,
            )
            gauge_set("kprof.waves", grid.waves, kernel=spec.name, device=device.name)
            gauge_set("kprof.tail_loss", grid.tail_loss, kernel=spec.name, device=device.name)
            for stage in smem:
                gauge_set(
                    "kprof.bank_conflict_degree", stage.degree,
                    kernel=spec.name, stage=stage.stage,
                )
            gauge_set(
                "kprof.roofline_pct_ceiling", point.pct_of_ceiling,
                kernel=spec.name, device=device.name,
            )
        counter_add("kprof.launches", len(launches), device=device.name)
        gauge_set(
            "kprof.gemm_tail_fraction", est.gemm_tail_fraction, device=device.name
        )
        sp.set(launches=len(launches), time_ms=round(est.time_ms, 6))

    return ConvProfile(
        device=device.name,
        shape=shape,
        algorithm=est.algorithm,
        time_ms=est.time_ms,
        gflops=est.gflops,
        launches=tuple(launches),
        gemm_tail_column_fraction=est.gemm_tail_fraction,
        gemm_tail_time_fraction=est.gemm_tail_time_fraction,
    )


def measure_conv(
    shape: ConvShape,
    *,
    alpha: int | None = None,
    reps: int = 5,
    modeled_time_ms: float = 0.0,
) -> dict[str, float]:
    """Run the conv on this machine and time it beside the modeled time.

    Executes :func:`repro.runtime.convolve` on a warm executable cache and
    records the median and min wallclock of ``reps`` calls next to
    ``modeled_time_ms``, the device model's time for the same shape.
    """
    import numpy as np

    from .. import runtime
    from ..bench.harness import measure_ns

    rng = np.random.default_rng(20260808)
    x = rng.standard_normal((shape.batch, shape.ih, shape.iw, shape.ic)).astype(
        np.float32
    )
    w = rng.standard_normal((shape.oc, shape.fh, shape.fw, shape.ic)).astype(np.float32)
    timing = measure_ns(lambda: runtime.convolve(x, w, alpha=alpha), reps=reps, warmup=1)
    return {
        "reps": float(reps),
        "modeled_time_ms": modeled_time_ms,
        "measured_median_ms": timing.median_ns / 1e6,
        "measured_min_ms": timing.min_ns / 1e6,
    }


def render_measured(measured: dict[str, float]) -> str:
    """The modeled-vs-measured text section ``--measure`` appends."""
    from ..bench.harness import banner, table

    return "\n".join(
        [
            banner(
                "Modeled vs measured (this machine)",
                f"median of {int(measured['reps'])} reps, compiled runtime",
            ),
            table(
                ["modeled (device)", "measured median", "measured min"],
                [
                    [
                        f"{measured['modeled_time_ms']:.4f} ms",
                        f"{measured['measured_median_ms']:.4f} ms",
                        f"{measured['measured_min_ms']:.4f} ms",
                    ]
                ],
            ),
        ]
    )


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

_KERNEL_RE = re.compile(
    r"^g(?:amma)?_?(?P<alpha>\d+)"
    r"(?:n(?P<n>\d+))?(?:r(?P<r>\d+))?"
    r"(?:[\^_:-](?P<impl>base|ruse|c64))?$"
)
_PAREN_RE = re.compile(r"^gamma?_?(?P<alpha>\d+)\((?P<n>\d+),(?P<r>\d+)\)$")


def parse_kernel_token(token: str) -> tuple[int, int, str | None, str | None]:
    """Parse ``g8n6r3`` / ``g8r3`` / ``gamma_8(6,3)`` / ``g16r9^c64``.

    Returns ``(alpha, r, impl, note)`` where ``impl`` is the base/ruse/c64
    selection (``None`` = planner default) and ``note`` is a human-readable
    correction when the given ``n`` is inconsistent with ``alpha = n+r-1``
    (the consistent ``n`` is derived from alpha and r and used instead).
    """
    t = token.strip().lower().replace(" ", "")
    m = _PAREN_RE.match(t) or _KERNEL_RE.match(t)
    if not m:
        raise ValueError(
            f"cannot parse kernel {token!r}; expected e.g. g8n6r3, g8r3, "
            f"gamma_8(6,3), g16r9^c64"
        )
    g = m.groupdict()
    alpha = int(g["alpha"])
    n = int(g["n"]) if g.get("n") else None
    r = int(g["r"]) if g.get("r") else None
    impl = g.get("impl")
    if r is None:
        if n is None:
            raise ValueError(f"kernel {token!r} fixes neither n nor r")
        r = alpha - n + 1
        n = None  # now consistent by construction
    note = None
    want_n = alpha - r + 1
    if n is not None and n != want_n:
        note = (
            f"note: n={n} inconsistent with alpha={alpha}, r={r} "
            f"(alpha = n+r-1); using Gamma_{alpha}({want_n},{r})"
        )
    return alpha, r, impl, note


def parse_ofm_token(token: str) -> tuple[int, int, int, int]:
    """Parse an ofm spec ``NxOHxOWxOC`` (Figure 8/9 x-axis) or comma form."""
    parts = [p for p in re.split(r"[x,×]", token.strip().lower()) if p]
    if len(parts) != 4:
        raise ValueError(f"shape {token!r} must be NxOHxOWxOC (4 fields)")
    try:
        n, oh, ow, oc = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"shape {token!r}: {exc}") from None
    return n, oh, ow, oc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.kernelprof",
        description="Nsight-style per-launch profile of one modeled convolution.",
    )
    parser.add_argument("--device", default="rtx4090", help="rtx3060ti or rtx4090")
    parser.add_argument(
        "--variant",
        required=True,
        metavar="KERNEL",
        help="Gamma kernel, e.g. g8n6r3 / g8r3 / gamma_16(8,9) / g16r9^c64",
    )
    parser.add_argument(
        "--shape",
        required=True,
        metavar="NxOHxOWxOC",
        help="output feature map as on the Figure 8/9 x-axes, e.g. 128x96x96x64",
    )
    parser.add_argument(
        "--ic", type=int, default=None, help="input channels (default: = OC, per §6)"
    )
    parser.add_argument(
        "--star",
        action="store_true",
        help="profile the paper's * measurement (pre-transposed filters)",
    )
    parser.add_argument("--json", action="store_true", help="emit the structured dict as JSON")
    parser.add_argument(
        "--measure",
        action="store_true",
        help="also run the conv on this machine (compiled runtime) and report "
        "its measured wallclock beside the modeled device time",
    )
    parser.add_argument(
        "--measure-reps",
        type=int,
        default=5,
        metavar="N",
        help="measurement repetitions for --measure (median recorded, default 5)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="also write a Chrome trace with the kprof.* counter tracks merged",
    )
    args = parser.parse_args(argv)

    try:
        device = resolve_device(args.device)
        alpha, r, impl, note = parse_kernel_token(args.variant)
        n_, oh, ow, oc = parse_ofm_token(args.shape)
        shape = ConvShape.from_ofm(n_, oh, ow, oc, r=r, ic=args.ic)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if note:
        print(note, file=sys.stderr)

    from . import capture, write_chrome_trace

    try:
        if args.trace_json:
            with capture() as tracer:
                profile = profile_conv(
                    shape,
                    device,
                    alpha=alpha,
                    variant=impl,
                    include_filter_transpose=not args.star,
                )
            written = write_chrome_trace(args.trace_json, tracer)
        else:
            written = None
            profile = profile_conv(
                shape,
                device,
                alpha=alpha,
                variant=impl,
                include_filter_transpose=not args.star,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    measured = None
    if args.measure:
        try:
            measured = measure_conv(
                shape,
                alpha=alpha,
                reps=args.measure_reps,
                modeled_time_ms=profile.time_ms,
            )
        except ValueError as exc:
            print(f"error: --measure failed: {exc}", file=sys.stderr)
            return 2

    if args.json:
        # stdout stays machine-parseable: the payload is the only thing
        # printed, with any correction notes embedded alongside their
        # stderr copies above.
        doc = profile.as_dict()
        doc["notes"] = [note] if note else []
        if measured is not None:
            doc["measured"] = measured
        print(json.dumps(doc, indent=2, sort_keys=True))
        if written:
            print(
                f"[kprof] Chrome trace with counter tracks written to {written}",
                file=sys.stderr,
            )
    else:
        print(profile.render())
        if measured is not None:
            print()
            print(render_measured(measured))
        if written:
            print(f"\n[kprof] Chrome trace with counter tracks written to {written}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
