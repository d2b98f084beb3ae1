"""Calibration constants of the performance model — all in one place.

These are hand-set *architectural* issue-efficiency fractions modeling the
paper's GPUs, fixed once against Figures 8/9 and never fitted per machine.
They feed the device-side predictions only; nothing here prices the host
runtime, whose cost is measured as wallclock.

The model in :mod:`repro.gpusim.perfmodel` is analytical: times come from
counted arithmetic and bytes against datasheet peaks.  What cannot be derived
from first principles is each kernel family's *achieved fraction* of issue
peak — that depends on instruction scheduling quality, which for cuDNN means
hand-tuned SASS and for the paper's kernels means "C++ without PTX or SASS"
(§4.1).  Those fractions are the constants below.  They were set once, by
eye, against the absolute Gflop/s levels of Figures 8 and 9, and are *shared
across every experiment* — no per-shape or per-figure fitting.

EXPERIMENTS.md discusses the sensitivity: the comparative structure of the
results (kernel ordering, variant ordering, boundary dips, speedup bands)
comes from the counted quantities (multiplication reduction, transform-op
ratio, occupancy, wave tails, traffic), not from these scalars; changing a
scalar moves a whole curve up or down without reordering it.
"""

from __future__ import annotations

__all__ = [
    "ARCH_EFF_GAMMA",
    "ARCH_EFF_CUDNN_GEMM_NHWC",
    "ARCH_EFF_CUDNN_GEMM_NCHW",
    "ARCH_EFF_CUDNN_FUSED_WINOGRAD",
    "ARCH_EFF_BOUNDARY_GEMM",
    "TRANSFORM_OP_FACTOR_PAIRED",
    "TRANSFORM_OP_FACTOR_DENSE",
    "WARPS_TO_HIDE_DOUBLE_BUFFERED",
    "WARPS_TO_HIDE_SINGLE_BUFFERED",
    "RUSE_ILP_FACTOR",
    "SINGLE_BUFFER_ISSUE_EFF",
    "TRANSFORM_OVERLAP_CREDIT",
    "L2_RESIDENT_HIT_RATE",
]

#: Issue efficiency of the paper's Gamma kernels (C++-level CUDA, FMA-heavy
#: inner loop, §4.1: "may not achieve the max hardware efficiency").
ARCH_EFF_GAMMA = 0.46

#: cuDNN Implicit_Precomp_GEMM, NHWC: hand-tuned SASS, the strongest general
#: baseline ("the fastest algorithm supporting NHWC format", §6.1.1).
ARCH_EFF_CUDNN_GEMM_NHWC = 0.74

#: Same algorithm, NCHW layout: slightly weaker vectorisation of the
#: channel-minor loads on these shapes.
ARCH_EFF_CUDNN_GEMM_NCHW = 0.68

#: cuDNN Fused_Winograd (F(2x2,3x3), NCHW-only): tuned, but its 16-state 2D
#: tiles pay more SMEM pressure per flop.
ARCH_EFF_CUDNN_FUSED_WINOGRAD = 0.42

#: The authors' own GEMM used for the §5.5 boundary tail — explicitly
#: "slower than cuDNN's GEMM" (§6.1.2).
ARCH_EFF_BOUNDARY_GEMM = 0.42

#: Ops per transform-matrix entry with the §5.3 even/odd pairing (mul+add
#: stream with ~half the muls reused) and without it (dense mat-vec).
TRANSFORM_OP_FACTOR_PAIRED = 1.5
TRANSFORM_OP_FACTOR_DENSE = 2.5

#: Active warps per SM needed to hide SMEM/global latency behind the outer
#: product: double buffering overlaps the next tile load with compute (§5.1),
#: halving the requirement.
WARPS_TO_HIDE_DOUBLE_BUFFERED = 8
WARPS_TO_HIDE_SINGLE_BUFFERED = 12

#: ruse variants run 8x(16x8) outer products per thread (§5.4): doubled
#: per-thread ILP halves the warp count needed to saturate issue.
RUSE_ILP_FACTOR = 2.0

#: Without the double buffer (alpha=16, §5.1) each tile load serialises with
#: the outer product once per iteration; fraction of issue retained.
SINGLE_BUFFER_ISSUE_EFF = 0.92

#: Fraction of transform-stage ALU work that overlaps memory latency: the
#: transforms run while the next tiles are in flight (§5.1's interleaving of
#: outer products, pre-fetch and transformation across warps), so only part
#: of their issue cost lands on the critical path.
TRANSFORM_OVERLAP_CREDIT = 0.5

#: Fraction of re-read traffic served by L2 when the per-wave working set
#: fits (re-reads = the same ifm tiles read by OC/BN block columns).
L2_RESIDENT_HIT_RATE = 0.90
