"""GPU execution-model substrate.

Replaces the paper's physical RTX 3060 Ti / RTX 4090 testbed with an
analytical + trace model: device specs, SMEM bank simulation (§5.2),
occupancy, block/grid decomposition (§5.1) and a roofline performance model
that converts counted arithmetic and memory traffic into the paper's
Gflop/s metric.  See DESIGN.md §2 for why this substitution preserves the
comparative structure of Experiment 1.
"""

from .autotune import TunedChoice, autotune_conv, clear_autotune_cache
from .blocking import GridPlan, grid_for, iterations_per_block
from .device import DEVICES, RTX3060TI, RTX4090, DeviceSpec
from .occupancy import Occupancy, occupancy_for
from .perfmodel import (
    PerfEstimate,
    SegmentEstimate,
    estimate_boundary_gemm_segment,
    estimate_conv,
    estimate_cudnn_fused_winograd,
    estimate_cudnn_gemm,
    estimate_winograd_segment,
)
from .smem import BANKS, SmemArray, conflict_degree, vectorized_conflict_degree
from .warp import (
    linear_lane_arrangement,
    swizzle_xi,
    thread_store_indices_ds,
    thread_store_indices_gs,
    z_lane_arrangement,
)

__all__ = [
    "DeviceSpec",
    "RTX3060TI",
    "RTX4090",
    "DEVICES",
    "Occupancy",
    "occupancy_for",
    "GridPlan",
    "TunedChoice",
    "autotune_conv",
    "clear_autotune_cache",
    "grid_for",
    "iterations_per_block",
    "PerfEstimate",
    "SegmentEstimate",
    "estimate_conv",
    "estimate_winograd_segment",
    "estimate_boundary_gemm_segment",
    "estimate_cudnn_gemm",
    "estimate_cudnn_fused_winograd",
    "SmemArray",
    "conflict_degree",
    "vectorized_conflict_degree",
    "BANKS",
    "z_lane_arrangement",
    "linear_lane_arrangement",
    "thread_store_indices_gs",
    "thread_store_indices_ds",
    "swizzle_xi",
]
