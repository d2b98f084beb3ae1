"""Analytical performance model: conv problem + kernel + device -> Gflop/s.

The model reproduces the paper's Experiment 1 (Figures 8/9, Table 2) on the
GPU-simulator substrate.  For each kernel it computes

* **actual arithmetic**: elementwise-multiply FMAs (``2*N*OH*T*OC*alpha*FH*IC``
  for ``Gamma_alpha`` — the Winograd reduction is *counted*, not assumed)
  plus the transform-stage ops (§5.3 pairing halves their multiplies);
* **issue efficiency**: a per-family achieved-fraction constant
  (:mod:`repro.gpusim.calibration`) degraded by occupancy-driven latency
  hiding (double buffering halves the warps needed, §5.1) and wave-tail
  quantisation;
* **memory time**: per-iteration global traffic (``BM`` input tiles of
  ``alpha`` items — fewer for ruse, §5.4 — and ``BN`` filter rows per BK
  channel slice), served by DRAM for unique bytes and by L2 for re-reads
  when the per-wave working set fits (the §4.2 locality argument);
* **boundary composition**: a convolution's time is the sum of its §5.5
  segments' times, each with its own kernel (+ our slower GEMM for the
  tail), plus one launch per segment — this is what makes performance dip
  whenever ``OW % n != 0``, exactly as §6.1.2 describes;
* **filter transposition** (§5.1): charged unless the caller asks for the
  paper's ``*`` variant (pre-transposed filters).

Reported Gflop/s uses the paper's metric: standard-convolution FLOPs over
time (§6.1.1), so Winograd kernels can exceed hardware peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.kernels import KernelId
from ..core.planner import ConvPlan, plan_convolution
from ..core.variants import VariantSpec, input_items_per_tile
from ..nhwc.layouts import filter_transposition_bytes
from ..nhwc.tensor import ConvShape
from ..obs import gauge_set, observe, span
from . import calibration as cal
from .blocking import GridPlan, grid_for
from .device import DeviceSpec

__all__ = [
    "PerfEstimate",
    "SegmentEstimate",
    "estimate_winograd_segment",
    "estimate_conv",
    "estimate_cudnn_gemm",
    "estimate_cudnn_fused_winograd",
    "estimate_boundary_gemm_segment",
]

_ITEM = 4  # FP32 bytes


@dataclass(frozen=True)
class SegmentEstimate:
    """Modeled execution of one width segment by one kernel."""

    name: str
    width: int
    time_ms: float
    compute_time_ms: float
    mem_time_ms: float
    actual_gflop: float
    grid: GridPlan | None = None


@dataclass(frozen=True)
class PerfEstimate:
    """Modeled execution of a full convolution.

    ``gflops`` is the paper's reported metric (standard-conv FLOPs / time);
    ``time_ms`` includes every segment, launch overheads and (unless the
    ``*`` variant was requested) the filter transposition.
    """

    algorithm: str
    device: str
    shape: ConvShape
    time_ms: float
    gflops: float
    segments: tuple[SegmentEstimate, ...] = field(default_factory=tuple)

    @property
    def bound(self) -> str:
        """"compute" or "memory", judged on the dominant segment."""
        if not self.segments:
            return "compute"
        main = max(self.segments, key=lambda s: s.time_ms)
        return "compute" if main.compute_time_ms >= main.mem_time_ms else "memory"

    @property
    def gemm_tail_fraction(self) -> float:
        """Fraction of output columns served by the §5.5 GEMM tail."""
        total = sum(s.width for s in self.segments)
        if not total:
            return 0.0
        return sum(s.width for s in self.segments if s.name == "GEMM") / total

    @property
    def gemm_tail_time_fraction(self) -> float:
        """Fraction of total modeled time spent in the GEMM tail.

        Launch overheads make this exceed the column fraction for narrow
        tails — exactly the §6.1.2 dip the profiler should surface.
        """
        if self.time_ms <= 0.0:
            return 0.0
        return sum(s.time_ms for s in self.segments if s.name == "GEMM") / self.time_ms


def _transform_ratio(spec: VariantSpec, op_factor: float) -> float:
    """Transform ops per outer-product op for one block iteration.

    Per iteration a block transforms ``BM*BK`` input tiles (``~op_factor *
    alpha^2`` ops each with the §5.3 pairing) and ``BN*BK`` filter rows
    (``~op_factor * alpha * r``), against ``2 * alpha * BN * BM * BK``
    outer-product flops: ratio = op_factor*(BM*alpha + BN*r)/(2*BN*BM).
    """
    return op_factor * (spec.bm * spec.alpha + spec.bn * spec.r) / (2.0 * spec.bn * spec.bm)


def _latency_hiding(grid: GridPlan, spec: VariantSpec) -> float:
    """Issue-slot utilisation from active warps vs the hiding requirement.

    Double buffering (alpha in {4, 8}) halves the warps needed (§5.1); the
    ruse variants' doubled per-thread outer product (8x(16x8), §5.4) halves
    it again, which is how they survive their reduced thread count.
    Single-buffered kernels additionally serialise one tile load per
    iteration with compute.
    """
    need = (
        cal.WARPS_TO_HIDE_DOUBLE_BUFFERED
        if spec.double_buffered
        else cal.WARPS_TO_HIDE_SINGLE_BUFFERED
    )
    if spec.variant == "ruse":
        need = max(1.0, need / cal.RUSE_ILP_FACTOR)
    warps = grid.occupancy.active_warps
    factor = min(1.0, warps / need)
    if not spec.double_buffered:
        factor *= cal.SINGLE_BUFFER_ISSUE_EFF
    return factor


def estimate_winograd_segment(
    shape: ConvShape,
    kernel: KernelId,
    device: DeviceSpec,
    *,
    ow_segment: int | None = None,
    paired_transforms: bool = True,
) -> SegmentEstimate:
    """Model one ``Gamma_alpha(n, r)`` kernel over one width segment."""
    spec = kernel.spec
    ow = shape.ow if ow_segment is None else ow_segment
    grid = grid_for(shape, spec, device, ow_segment=ow)
    tiles = ow // spec.n

    # --- arithmetic ------------------------------------------------------
    elem_mul_flops = 2.0 * shape.batch * shape.oh * tiles * shape.oc * spec.alpha * shape.fh * shape.ic
    op_factor = (
        cal.TRANSFORM_OP_FACTOR_PAIRED if paired_transforms else cal.TRANSFORM_OP_FACTOR_DENSE
    )
    total_flops = elem_mul_flops * (
        1.0 + _transform_ratio(spec, op_factor) * cal.TRANSFORM_OVERLAP_CREDIT
    )
    eff = cal.ARCH_EFF_GAMMA * _latency_hiding(grid, spec) * grid.tail_efficiency
    compute_s = total_flops / (device.peak_fp32_gflops * 1e9 * eff)

    # --- memory ----------------------------------------------------------
    items = input_items_per_tile(spec.alpha, spec.r, spec.variant)
    per_iter_bytes = (spec.bm * items + spec.bn * spec.r) * spec.bk * _ITEM
    load_bytes = grid.blocks * grid.iterations * per_iter_bytes
    store_bytes = shape.batch * shape.oh * tiles * spec.n * shape.oc * _ITEM
    unique_in = shape.batch * shape.ih * min(shape.iw, ow + shape.fw - 1) * shape.ic * _ITEM
    unique_w = shape.oc * shape.fh * shape.fw * shape.ic * _ITEM
    mem_s = _memory_time(device, load_bytes, store_bytes, unique_in + unique_w, grid)

    time_s = max(compute_s, mem_s) + device.launch_overhead_us * 1e-6
    observe("model.segment_ns", time_s * 1e9, kernel=kernel.name, device=device.name)
    gauge_set(
        "model.occupancy_warps",
        grid.occupancy.active_warps,
        kernel=kernel.name,
        device=device.name,
    )
    return SegmentEstimate(
        name=kernel.name,
        width=ow,
        time_ms=time_s * 1e3,
        compute_time_ms=compute_s * 1e3,
        mem_time_ms=mem_s * 1e3,
        actual_gflop=total_flops / 1e9,
        grid=grid,
    )


def _memory_time(
    device: DeviceSpec,
    load_bytes: float,
    store_bytes: float,
    unique_bytes: float,
    grid: GridPlan | None,
    wave_fraction: float | None = None,
) -> float:
    """DRAM + L2 service time for a load/store stream.

    Unique bytes (first touch) and stores go to DRAM.  Re-read bytes hit L2
    at :data:`~repro.gpusim.calibration.L2_RESIDENT_HIT_RATE` when the
    per-wave working set fits in L2 — concurrent blocks of one wave share
    input across the OC/BN grid columns (§4.2's "data stays in L2 longer"
    argument for 1D tiles); otherwise the hit rate degrades proportionally.
    """
    rereads = max(0.0, load_bytes - unique_bytes)
    if grid is not None and grid.grid_n > 0:
        slots = max(1, grid.blocks // grid.waves)
        wave_ws = unique_bytes * min(1.0, slots / max(1, grid.grid_n) / max(1, grid.grid_m))
    elif wave_fraction is not None:
        wave_ws = unique_bytes * min(1.0, wave_fraction)
    else:
        wave_ws = unique_bytes
    fit = min(1.0, device.l2_bytes / max(wave_ws, 1.0))
    hit = cal.L2_RESIDENT_HIT_RATE * fit
    dram_bytes = unique_bytes + store_bytes + rereads * (1.0 - hit)
    l2_bytes = load_bytes + store_bytes
    return max(
        dram_bytes / (device.dram_bw_gbs * 1e9),
        l2_bytes / (device.l2_bw_gbs * 1e9),
    )


def estimate_boundary_gemm_segment(
    shape: ConvShape, device: DeviceSpec, width: int
) -> SegmentEstimate:
    """The authors' GEMM tail over ``width`` output columns (§5.5)."""
    flops = 2.0 * shape.batch * shape.oc * shape.oh * width * shape.fh * shape.fw * shape.ic
    eff = cal.ARCH_EFF_BOUNDARY_GEMM
    compute_s = flops / (device.peak_fp32_gflops * 1e9 * eff)
    bytes_ = (
        shape.batch * shape.oh * width * (shape.fh * shape.fw * shape.ic + shape.oc) * _ITEM
    )
    mem_s = _memory_time(device, bytes_, 0.0, bytes_, None)
    time_s = max(compute_s, mem_s) + device.launch_overhead_us * 1e-6
    return SegmentEstimate(
        name="GEMM",
        width=width,
        time_ms=time_s * 1e3,
        compute_time_ms=compute_s * 1e3,
        mem_time_ms=mem_s * 1e3,
        actual_gflop=flops / 1e9,
    )


def estimate_conv(
    shape: ConvShape,
    device: DeviceSpec,
    *,
    alpha: int | None = None,
    variant: str | None = None,
    include_filter_transpose: bool = True,
    paired_transforms: bool = True,
    plan: ConvPlan | None = None,
) -> PerfEstimate:
    """Model a full Im2col-Winograd convolution (all §5.5 segments).

    ``include_filter_transpose=False`` is the paper's ``*`` measurement
    (pre-transposed filters, §6.1.2).
    """
    if plan is None:
        plan = plan_convolution(shape, alpha=alpha, variant=variant)
    if plan.algorithm != "im2col-winograd":
        raise ValueError(f"planner refused Winograd: {plan.reason}")
    name = plan.primary.name if plan.primary is not None else "im2col-winograd"
    with span("model.estimate_conv", kernel=name, device=device.name, ow=shape.ow) as sp:
        segs: list[SegmentEstimate] = []
        for seg in plan.segments:
            if seg.is_gemm:
                segs.append(estimate_boundary_gemm_segment(shape, device, seg.width))
            else:
                segs.append(
                    estimate_winograd_segment(
                        shape,
                        seg.kernel,  # type: ignore[arg-type]
                        device,
                        ow_segment=seg.width,
                        paired_transforms=paired_transforms,
                    )
                )
        time_s = sum(s.time_ms for s in segs) * 1e-3
        if include_filter_transpose:
            tbytes = filter_transposition_bytes(shape.oc, shape.fh, shape.fw, shape.ic)
            time_s += tbytes / (device.dram_bw_gbs * 1e9) + device.launch_overhead_us * 1e-6
        sp.set(time_ms=round(time_s * 1e3, 6), segments=len(segs))
    observe("model.predicted_ns", time_s * 1e9, algorithm=name, device=device.name)
    return PerfEstimate(
        algorithm=name + ("" if include_filter_transpose else "*"),
        device=device.name,
        shape=shape,
        time_ms=time_s * 1e3,
        gflops=shape.flops / time_s / 1e9,
        segments=tuple(segs),
    )


# --------------------------------------------------------------------------
# cuDNN baseline models
# --------------------------------------------------------------------------

#: Macro-tile repertoire of the Implicit_Precomp_GEMM template: cuDNN
#: heuristically picks a tile per problem; the model tries each and keeps
#: the fastest, mirroring cudnnFindConvolutionForwardAlgorithm.
_GEMM_TILES = (
    {"bn": 128, "bm": 128, "bk": 8, "threads": 256, "smem": 32_768, "regs": 255},
    {"bn": 128, "bm": 64, "bk": 8, "threads": 256, "smem": 24_576, "regs": 128},
    {"bn": 64, "bm": 128, "bk": 8, "threads": 256, "smem": 24_576, "regs": 128},
    {"bn": 64, "bm": 64, "bk": 8, "threads": 128, "smem": 16_384, "regs": 128},
    {"bn": 64, "bm": 32, "bk": 8, "threads": 128, "smem": 12_288, "regs": 96},
    {"bn": 32, "bm": 32, "bk": 8, "threads": 64, "smem": 8_192, "regs": 96},
)


def estimate_cudnn_gemm(
    shape: ConvShape, device: DeviceSpec, *, layout: str = "nhwc"
) -> PerfEstimate:
    """Model cuDNN's Implicit_Precomp_GEMM in NHWC or NCHW layout.

    A direct-convolution GEMM: ``GM = N*OH*OW``, ``GN = OC``,
    ``GK = FH*FW*IC``; the best macro-tile from the repertoire is used,
    with hand-tuned-SASS issue efficiency.
    """
    if layout not in ("nhwc", "nchw"):
        raise ValueError(f"layout must be 'nhwc' or 'nchw', got {layout!r}")
    eff_base = (
        cal.ARCH_EFF_CUDNN_GEMM_NHWC if layout == "nhwc" else cal.ARCH_EFF_CUDNN_GEMM_NCHW
    )
    gm = shape.batch * shape.oh * shape.ow
    gn = shape.oc
    gk = shape.fh * shape.fw * shape.ic
    from .occupancy import occupancy_for

    best: SegmentEstimate | None = None
    for tile in _GEMM_TILES:
        grid_n = -(-gn // tile["bn"])
        grid_m = -(-gm // tile["bm"])
        blocks = grid_n * grid_m
        occ = occupancy_for(
            device,
            threads_per_block=tile["threads"],
            smem_per_block=tile["smem"],
            regs_per_thread=tile["regs"],
        )
        slots = device.sm_count * occ.blocks_per_sm
        waves = -(-blocks // slots)
        tail = blocks / (waves * slots)
        util = (gn * gm) / (grid_n * tile["bn"] * grid_m * tile["bm"])
        flops = shape.flops / util
        # Smaller tiles reload operands more often -> lower sustained rate.
        tile_eff = min(1.0, (tile["bn"] + tile["bm"]) / 160.0)
        hide = min(1.0, occ.active_warps / cal.WARPS_TO_HIDE_DOUBLE_BUFFERED)
        eff = eff_base * tile_eff * hide * tail
        compute_s = flops / (device.peak_fp32_gflops * 1e9 * eff)
        load_bytes = blocks * (-(-gk // tile["bk"])) * (
            (tile["bn"] + tile["bm"]) * tile["bk"] * _ITEM
        )
        store_bytes = gm * gn * _ITEM
        unique = (shape.batch * shape.ih * shape.iw * shape.ic + gn * gk) * _ITEM
        # cuDNN swizzles block order for L2 locality: the working set at any
        # moment is one wave's GM strip, not the whole ifm.
        wave_frac = slots * tile["bm"] / max(1, gm)
        mem_s = _memory_time(device, load_bytes, store_bytes, unique, None, wave_frac)
        time_s = max(compute_s, mem_s) + device.launch_overhead_us * 1e-6
        cand = SegmentEstimate(
            name=f"ImplicitPrecompGEMM-{layout.upper()}",
            width=shape.ow,
            time_ms=time_s * 1e3,
            compute_time_ms=compute_s * 1e3,
            mem_time_ms=mem_s * 1e3,
            actual_gflop=flops / 1e9,
        )
        if best is None or cand.time_ms < best.time_ms:
            best = cand
    assert best is not None
    return PerfEstimate(
        algorithm=best.name,
        device=device.name,
        shape=shape,
        time_ms=best.time_ms,
        gflops=shape.flops / (best.time_ms * 1e-3) / 1e9,
        segments=(best,),
    )


def estimate_cudnn_fused_winograd(shape: ConvShape, device: DeviceSpec) -> PerfEstimate:
    """Model cuDNN's Fused_Winograd: F(2x2,3x3), NCHW, 3x3 filters only."""
    if shape.fh != 3 or shape.fw != 3:
        raise ValueError("cuDNN Fused_Winograd supports 3x3 filters only (§6.1.1)")
    m, r, alpha = 2, 3, 4
    bn, bm, bk = 64, 32, 8
    threads, regs = 256, 120
    smem = 4 * alpha * alpha * (bn // 4 + bm) * bk // 2  # 2D tiles, packed
    from .occupancy import occupancy_for

    occ = occupancy_for(device, threads_per_block=threads, smem_per_block=smem, regs_per_thread=regs)
    tiles = (-(-shape.oh // m)) * (-(-shape.ow // m))  # 2D tiles, masked edges
    # cuDNN's fused Winograd tiles per image: small feature maps leave BM
    # mostly idle — the instability the paper contrasts against (§6.1.2).
    grid_n = -(-shape.oc // bn)
    grid_m = shape.batch * (-(-tiles // bm))
    blocks = grid_n * grid_m
    slots = device.sm_count * occ.blocks_per_sm
    waves = -(-blocks // slots)
    tail = blocks / (waves * slots)
    # Masked ragged tiles still compute full 2x2 outputs; idle BM slots and
    # ragged tiles both waste issued work.
    util = (shape.oh * shape.ow) / ((-(-tiles // bm)) * bm * m * m)
    elem_flops = 2.0 * shape.batch * tiles * shape.oc * alpha * alpha * shape.ic
    transform_ratio = cal.TRANSFORM_OP_FACTOR_PAIRED * alpha / bn  # 2alpha^3 BM / (2alpha^2 BN BM)
    flops = elem_flops * (1.0 + transform_ratio * cal.TRANSFORM_OVERLAP_CREDIT)
    hide = min(1.0, occ.active_warps / cal.WARPS_TO_HIDE_SINGLE_BUFFERED)
    eff = cal.ARCH_EFF_CUDNN_FUSED_WINOGRAD * hide * tail
    compute_s = flops / (device.peak_fp32_gflops * 1e9 * eff)
    load_bytes = blocks * (shape.ic / bk) * ((bn * r * r + bm * alpha * alpha) * bk * _ITEM)
    store_bytes = shape.batch * shape.oh * shape.ow * shape.oc * _ITEM
    unique = (shape.batch * shape.ih * shape.iw * shape.ic + shape.oc * 9 * shape.ic) * _ITEM
    wave_frac = slots * bm / max(1, shape.batch * tiles)
    mem_s = _memory_time(device, load_bytes, store_bytes, unique, None, wave_frac)
    time_s = max(compute_s, mem_s) + device.launch_overhead_us * 1e-6
    seg = SegmentEstimate(
        name="FusedWinograd-NCHW",
        width=shape.ow,
        time_ms=time_s * 1e3,
        compute_time_ms=compute_s * 1e3,
        mem_time_ms=mem_s * 1e3,
        actual_gflop=flops / 1e9,
    )
    return PerfEstimate(
        algorithm=seg.name,
        device=device.name,
        shape=shape,
        time_ms=time_s * 1e3,
        gflops=shape.flops / time_s / 1e9,
        segments=(seg,),
    )
