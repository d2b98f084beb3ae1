"""Per-iteration kernel trace simulator.

Where :mod:`repro.gpusim.perfmodel` is closed-form, this module *plays out*
one block's main loop phase by phase, counting SMEM transaction phases under
the actual §5.2 store/load patterns.  It exists for the A1 ablation: quantify
what the paper's padding, swizzling and Z-shaped laneIdx buy, by running the
same workflow with and without them.

The simulated phases per iteration (Algorithms 1/2):

1. store transformed filter tiles to ``Gs`` (one word-column per thread),
2. store transformed input tiles to ``Ds`` (optionally swizzled),
3. ``BK`` outer-product steps, each loading 2 x 128-bit from ``Gs``/``Ds``
   per thread (Z or linear lane arrangement),

plus, at the end, 4 rounds of ``Ys`` staging stores (optionally padded).
SMEM cost is counted in transaction phases (conflict degree 1 = ideal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.variants import VariantSpec
from ..obs import counter_add
from .smem import SmemArray, conflict_degree, vectorized_conflict_degree
from .warp import (
    linear_lane_arrangement,
    swizzle_xi,
    thread_store_indices_ds,
    thread_store_indices_gs,
    z_lane_arrangement,
)

__all__ = [
    "TraceResult",
    "load_degrees",
    "simulate_block_iteration",
    "simulate_output_stage",
    "store_degrees",
]


@dataclass(frozen=True)
class TraceResult:
    """SMEM transaction accounting of one simulated stage.

    ``phases`` counts executed SMEM transaction phases; ``ideal_phases`` is
    the conflict-free minimum; ``conflict_overhead`` is their ratio - 1.
    """

    phases: int
    ideal_phases: int

    @property
    def conflict_overhead(self) -> float:
        return self.phases / self.ideal_phases - 1.0

    def __add__(self, other: "TraceResult") -> "TraceResult":
        return TraceResult(self.phases + other.phases, self.ideal_phases + other.ideal_phases)


def _warp_lanes(first_thread: int, threads_x: int = 16):
    """Yield (tx, ty) of the 32 consecutive threads forming one warp."""
    for lane in range(32):
        t = first_thread + lane
        yield t % threads_x, t // threads_x


def _can_swizzle(spec: VariantSpec) -> bool:
    """Gamma_8 swizzles (SMEM full); Gamma_16 pads ``Ds`` instead (§5.2)."""
    return spec.alpha != 16


def _tile_arrays(spec: VariantSpec, swizzle_ds: bool) -> tuple[SmemArray, SmemArray]:
    """``Gs`` and ``Ds``; ``Ds`` carries Gamma_16's +4 padding when mitigated."""
    pad = 4 if (not _can_swizzle(spec) and swizzle_ds) else 0
    return (
        SmemArray("Gs", (spec.bk, spec.alpha, spec.bn)),
        SmemArray("Ds", (spec.bk, spec.alpha, spec.bm + pad)),
    )


def store_degrees(spec: VariantSpec, *, swizzle_ds: bool = True) -> list[tuple[int, int]]:
    """``(Gs, Ds)`` conflict degree of each warp's main-loop tile store.

    ``swizzle_ds`` applies the §5.2 mitigation: Gamma_8's
    ``Xi <- (Xi + 4*Xk) % 32`` store swizzle, or for alpha=16 the +4
    padding of ``Ds[8][16][32+4]``.
    """
    gs, ds = _tile_arrays(spec, swizzle_ds)
    ds_width = ds.shape[2]
    swizzle = swizzle_ds and _can_swizzle(spec)
    out = []
    for w in range(spec.threads // 32):
        g_addrs, d_addrs = [], []
        for tx, ty in _warp_lanes(w * 32):
            gk, gi = thread_store_indices_gs(tx, ty, spec.bn)
            xk, xi = thread_store_indices_ds(tx, ty, spec.bm)
            if swizzle:
                xi = swizzle_xi(xi, xk, spec.bm)
            g_addrs.append(gs.address(gk, 0, gi % spec.bn))
            d_addrs.append(ds.address(xk, 0, xi % ds_width))
        out.append((conflict_degree(g_addrs), conflict_degree(d_addrs)))
    return out


def load_degrees(
    spec: VariantSpec,
    *,
    swizzle_ds: bool = True,
    arrangement: Callable[[int], tuple[int, int]] = z_lane_arrangement,
) -> list[tuple[int, int]]:
    """``(Gs, Ds)`` 128-bit conflict degree of a warp's outer-product loads
    at each of the ``BK`` steps (every warp loads the same pattern).

    ``arrangement`` maps a lane to its ``(Gs, Ds)`` column: Figure 4's Z
    shape, the naive linear mapping, or any other; a swizzled ``Ds`` is
    read back through the swizzle's compensation.
    """
    gs, ds = _tile_arrays(spec, swizzle_ds)
    ds_width = ds.shape[2]
    swizzle = swizzle_ds and _can_swizzle(spec)
    out = []
    for ik in range(spec.bk):
        g_base, d_base = [], []
        for lane in range(32):
            gidx, didx = arrangement(lane)
            if swizzle:
                didx = (didx + 4 * ik) % spec.bm
            g_base.append(gs.address(ik, 0, gidx % spec.bn))
            d_base.append(ds.address(ik, 0, didx % ds_width))
        out.append((vectorized_conflict_degree(g_base, 4), vectorized_conflict_degree(d_base, 4)))
    return out


def simulate_block_iteration(
    spec: VariantSpec,
    *,
    swizzle_ds: bool = True,
    z_lanes: bool = True,
) -> TraceResult:
    """Count SMEM phases of one main-loop iteration of ``Gamma_alpha``.

    Parameters
    ----------
    spec:
        Kernel blocking (``variant_spec(alpha, n, r)``).
    swizzle_ds:
        Apply Gamma_8's ``Xi <- (Xi + 4*Xk) % 32`` store swizzle (§5.2); for
        alpha=16 this models the +4 padding of ``Ds[8][16][32+4]`` instead.
    z_lanes:
        Use the Figure 4 Z-shaped lane arrangement for outer-product loads
        (else naive row-major).
    """
    arrange = z_lane_arrangement if z_lanes else linear_lane_arrangement
    warps = spec.threads // 32
    # Each thread stores an alpha-deep column; degree repeats per row.
    stores = store_degrees(spec, swizzle_ds=swizzle_ds)
    phases = sum(g + d for g, d in stores) * spec.alpha
    ideal = 2 * spec.alpha * len(stores)
    # Each step loads 2x128-bit from Gs and 2x128-bit from Ds per thread.
    loads = load_degrees(spec, swizzle_ds=swizzle_ds, arrangement=arrange)
    phases += warps * sum(g + d for g, d in loads) * 2
    ideal += warps * 4 * len(loads)
    counter_add("smem.phases", phases, stage="iteration", alpha=spec.alpha)
    counter_add("smem.ideal_phases", ideal, stage="iteration", alpha=spec.alpha)
    return TraceResult(phases, ideal)


def simulate_output_stage(spec: VariantSpec, *, padded: bool = True) -> TraceResult:
    """Count SMEM phases of the 4-round ``Ys`` output staging (§5.1/5.2).

    The paper pads ``Ys`` to ``[8][32+1][16+4]`` (Gamma_8) /
    ``[2][16][16+1][16+4]`` (Gamma_16); without padding, the 128-bit staging
    stores of a warp pile onto a handful of banks.
    """
    alpha = spec.alpha
    rows = bm_half = spec.bn // 2
    inner = 16 + (4 if padded else 0)
    mid = bm_half + (1 if padded else 0)
    ys = SmemArray("Ys", (8 if alpha == 8 else alpha, mid, inner))
    phases = 0
    ideal = 0
    warps = spec.threads // 32
    for rnd in range(4):
        for w in range(warps):
            addrs = []
            for lane in range(32):
                ux = (w * 32 + lane) // 16 % (ys.shape[0])
                uy = (w * 32 + lane) % rows % mid
                addrs.append(ys.address(ux, uy, (4 * rnd) % inner))
            phases += vectorized_conflict_degree(addrs, 4)
            ideal += 1
    counter_add("smem.phases", phases, stage="output", alpha=spec.alpha)
    counter_add("smem.ideal_phases", ideal, stage="output", alpha=spec.alpha)
    return TraceResult(phases, ideal)
