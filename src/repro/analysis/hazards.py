"""Pass 3 — SMEM hazard detection and bank-conflict lint (§5.1 / §5.2).

Two sub-analyses, both static:

**Phase-interval hazard model** (SMEM001/002).  The §5.1 main loop is
modelled as intervals on a logical timeline: per iteration a *load/transform*
phase writes one SMEM tile buffer and a *compute* (outer-product) phase
reads one.  Double-buffered kernels (alpha in {4, 8}) overlap the next
iteration's load with the current compute — legal only because the phases
touch different buffers; the single-buffered alpha=16 kernels must
serialise, with a ``__syncthreads`` between store and compute.  The
detector intersects every write interval with every read interval of the
same buffer: an overlap is a WAR hazard (load clobbers data still being
read) or a RAW hazard (compute reads data still being written).  The number
of *available* buffers is derived from ``smem_bytes`` — a spec claiming
double buffering whose SMEM only holds one buffer is caught here, as is a
pipeline whose swap barrier was dropped (``assume_sync=False``).

**Bank-conflict lint** (SMEM003-006).  Replays the §5.2 layouts through
:mod:`repro.gpusim.smem` / :mod:`repro.gpusim.warp` at *stage* granularity
and enforces the paper's per-stage claims:

* the Figure 4 Z-shaped laneIdx arrangement makes the outer-product loads
  conflict-free — degree 1 is a hard requirement (SMEM003);
* the padded ``Ys`` staging stores are conflict-free — degree 1 required
  (SMEM004);
* the store-phase mitigation (Gamma_8's ``Xi`` swizzle / Gamma_16's ``Ds``
  padding) must never be *worse* than the naive layout (SMEM005);
* residual store conflicts with mitigations on are reported as INFO
  (SMEM006) — the column-store pattern's known floor, not a defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ..core.variants import VariantSpec
from ..gpusim.trace import load_degrees, simulate_output_stage, store_degrees
from ..gpusim.warp import linear_lane_arrangement, z_lane_arrangement
from .findings import Finding
from .rules import make_finding

__all__ = [
    "PhaseInterval",
    "Hazard",
    "pipeline_intervals",
    "detect_hazards",
    "pipeline_hazard_findings",
    "StageDegrees",
    "stage_degrees",
    "bank_conflict_findings",
    "findings_from_degrees",
]

#: Bytes of one single-buffered tile-array set: Gs + Ds, 4 B words (§5.1).
def _buffer_bytes(spec: VariantSpec) -> int:
    return 4 * spec.alpha * (spec.bn + spec.bm) * spec.bk


# ---------------------------------------------------------------------------
# Phase-interval pipeline model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseInterval:
    """One pipeline phase touching one SMEM buffer over [start, end)."""

    phase: str  # e.g. "load[2]" / "compute[1]"
    buffer: int
    access: str  # "write" | "read"
    start: float
    end: float

    def overlaps(self, other: "PhaseInterval") -> bool:
        return self.buffer == other.buffer and self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Hazard:
    """A write/read interval overlap on one buffer."""

    kind: str  # "WAR" | "RAW"
    writer: PhaseInterval
    reader: PhaseInterval

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.writer.phase} writes buffer {self.writer.buffer} over "
            f"[{self.writer.start:g}, {self.writer.end:g}) while {self.reader.phase} reads it over "
            f"[{self.reader.start:g}, {self.reader.end:g})"
        )


def pipeline_intervals(
    spec: VariantSpec,
    iterations: int = 4,
    *,
    buffers: int | None = None,
    overlapped: bool | None = None,
    assume_sync: bool = True,
) -> list[PhaseInterval]:
    """Phase intervals of ``iterations`` §5.1 main-loop steps.

    Parameters
    ----------
    spec:
        Kernel blocking; decides the schedule shape unless overridden.
    buffers:
        SMEM buffers actually available; defaults to what ``smem_bytes``
        holds (so a corrupted spec under-provisions the model, as it would
        the hardware).
    overlapped:
        Run the double-buffered (overlapped) schedule; defaults to
        ``spec.double_buffered``.  Forcing ``True`` on a single-buffered
        kernel is the classic §5.1 defect this pass exists to catch.
    assume_sync:
        Model the per-buffer-swap ``__syncthreads``.  ``False`` drops the
        barrier: load phases start half a slot early, exposing the WAR/RAW
        overlaps the barrier exists to prevent.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if buffers is None:
        buffers = max(1, spec.smem_bytes // _buffer_bytes(spec))
    if overlapped is None:
        overlapped = spec.double_buffered
    skew = 0.0 if assume_sync else 0.5
    out: list[PhaseInterval] = []
    if overlapped:
        # Fill: load[0] ahead of the loop; then load[i+1] overlaps compute[i].
        out.append(PhaseInterval("load[0]", 0 % buffers, "write", -1.0, 0.0))
        for i in range(iterations):
            out.append(PhaseInterval(f"compute[{i}]", i % buffers, "read", float(i), i + 1.0))
            if i + 1 < iterations:
                out.append(
                    PhaseInterval(
                        f"load[{i + 1}]",
                        (i + 1) % buffers,
                        "write",
                        i - skew,
                        i + 1.0 - skew,
                    )
                )
    else:
        # Serial: store, barrier, compute — each iteration on buffer i % buffers.
        for i in range(iterations):
            out.append(
                PhaseInterval(f"load[{i}]", i % buffers, "write", float(i), i + 0.5)
            )
            out.append(
                PhaseInterval(
                    f"compute[{i}]", i % buffers, "read", i + 0.5 - skew, i + 1.0
                )
            )
    return out


def detect_hazards(intervals: list[PhaseInterval]) -> list[Hazard]:
    """Every write/read overlap on a shared buffer, classified WAR vs RAW.

    A read that *began before* the overlapping write is a WAR hazard (the
    write clobbers in-flight data); a read beginning at or after the write's
    start is a RAW hazard (it observes a half-written buffer).
    """
    writes = [p for p in intervals if p.access == "write"]
    reads = [p for p in intervals if p.access == "read"]
    hazards: list[Hazard] = []
    for w in writes:
        for r in reads:
            if w.overlaps(r):
                kind = "WAR" if r.start < w.start else "RAW"
                hazards.append(Hazard(kind, w, r))
    return hazards


def pipeline_hazard_findings(
    spec: VariantSpec,
    *,
    iterations: int = 4,
    buffers: int | None = None,
    overlapped: bool | None = None,
    assume_sync: bool = True,
) -> list[Finding]:
    """SMEM001/002 findings of one kernel's modeled pipeline."""
    intervals = pipeline_intervals(
        spec,
        iterations,
        buffers=buffers,
        overlapped=overlapped,
        assume_sync=assume_sync,
    )
    findings: list[Finding] = []
    seen: set[tuple[str, str, str]] = set()
    for hz in detect_hazards(intervals):
        key = (hz.kind, hz.writer.phase, hz.reader.phase)
        if key in seen:  # one finding per distinct phase pair
            continue
        seen.add(key)
        rule = "SMEM001" if hz.kind == "WAR" else "SMEM002"
        findings.append(
            make_finding(
                rule,
                f"{spec.name}: {hz.describe()}",
                location={"kernel": spec.name},
                context={
                    "buffer": hz.writer.buffer,
                    "writer": hz.writer.phase,
                    "reader": hz.reader.phase,
                    "double_buffered": spec.double_buffered,
                },
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Bank-conflict lint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDegrees:
    """Worst per-warp conflict degree of each §5.2 SMEM stage of one kernel.

    ``*_on`` replays the shipped layout (mitigations enabled); ``*_off`` the
    naive layout the paper compares against.
    """

    store_gs_on: int
    store_ds_on: int
    store_gs_off: int
    store_ds_off: int
    load_gs_on: int
    load_ds_on: int
    staging_on: int
    staging_off: int

    def as_dict(self) -> dict[str, int]:
        return {
            "store_gs_on": self.store_gs_on,
            "store_ds_on": self.store_ds_on,
            "store_gs_off": self.store_gs_off,
            "store_ds_off": self.store_ds_off,
            "load_gs_on": self.load_gs_on,
            "load_ds_on": self.load_ds_on,
            "staging_on": self.staging_on,
            "staging_off": self.staging_off,
        }


def _worst(degrees: list[tuple[int, int]]) -> tuple[int, int]:
    """Worst ``(Gs, Ds)`` degree over a replay's warps or steps."""
    gs, ds = zip(*degrees)
    return max(gs), max(ds)


def _staging_degree(spec: VariantSpec, padded: bool) -> int:
    """Worst-warp degree of the 4-round Ys output staging (§5.1/§5.2)."""
    res = simulate_output_stage(spec, padded=padded)
    # simulate_output_stage counts total phases over warps*rounds; the worst
    # per-access degree is bounded by the average, which is exact here since
    # all rounds are symmetric.
    return max(1, -(-res.phases // res.ideal_phases))


@lru_cache(maxsize=None)
def stage_degrees(
    spec: VariantSpec,
    *,
    swizzle_ds: bool = True,
    z_lanes: bool = True,
    padded_ys: bool = True,
    arrangement: Callable[[int], tuple[int, int]] | None = None,
) -> StageDegrees:
    """Replay every §5.2 stage of ``spec`` with mitigations as configured.

    The keyword toggles model deliberate corruption (a layout that dropped
    its mitigation, or an ``arrangement`` that maps lanes onto shared
    banks); the defaults replay the shipped kernels.  Cached:
    ``VariantSpec`` is frozen and the replay is pure.
    """
    gs_on, ds_on = _worst(store_degrees(spec, swizzle_ds=swizzle_ds))
    gs_off, ds_off = _worst(store_degrees(spec, swizzle_ds=False))
    # The loads always read the shipped (mitigated) layout; ``arrangement``
    # overrides the lane mapping entirely, else ``z_lanes`` picks Figure 4's
    # Z shape or the naive linear mapping.
    if arrangement is None:
        arrangement = z_lane_arrangement if z_lanes else linear_lane_arrangement
    load_gs, load_ds = _worst(load_degrees(spec, arrangement=arrangement))
    return StageDegrees(
        store_gs_on=gs_on,
        store_ds_on=ds_on,
        store_gs_off=gs_off,
        store_ds_off=ds_off,
        load_gs_on=load_gs,
        load_ds_on=load_ds,
        staging_on=_staging_degree(spec, padded=padded_ys),
        staging_off=_staging_degree(spec, padded=False),
    )


def bank_conflict_findings(
    spec: VariantSpec,
    *,
    swizzle_ds: bool = True,
    z_lanes: bool = True,
    padded_ys: bool = True,
    arrangement: Callable[[int], tuple[int, int]] | None = None,
) -> list[Finding]:
    """SMEM003-006 findings of one kernel's §5.2 layouts."""
    deg = stage_degrees(
        spec,
        swizzle_ds=swizzle_ds,
        z_lanes=z_lanes,
        padded_ys=padded_ys,
        arrangement=arrangement,
    )
    return findings_from_degrees(spec.name, deg)


def findings_from_degrees(name: str, deg: StageDegrees) -> list[Finding]:
    """Apply the SMEM003-006 rule contract to measured stage degrees."""
    loc = {"kernel": name}
    findings: list[Finding] = []
    if deg.load_gs_on > 1 or deg.load_ds_on > 1:
        findings.append(
            make_finding(
                "SMEM003",
                f"{name}: outer-product loads conflict (Gs degree {deg.load_gs_on}, "
                f"Ds degree {deg.load_ds_on}); the Z-lane arrangement must reach degree 1",
                location={**loc, "stage": "outer_product_loads"},
                context=deg.as_dict(),
            )
        )
    if deg.staging_on > 1:
        findings.append(
            make_finding(
                "SMEM004",
                f"{name}: Ys output staging at degree {deg.staging_on} "
                f"(naive layout: {deg.staging_off}); padding must reach degree 1",
                location={**loc, "stage": "output_staging"},
                context=deg.as_dict(),
            )
        )
    if deg.store_gs_on > deg.store_gs_off or deg.store_ds_on > deg.store_ds_off:
        findings.append(
            make_finding(
                "SMEM005",
                f"{name}: mitigated stores (Gs {deg.store_gs_on}, Ds {deg.store_ds_on}) "
                f"conflict more than naive (Gs {deg.store_gs_off}, Ds {deg.store_ds_off})",
                location={**loc, "stage": "main_loop_stores"},
                context=deg.as_dict(),
            )
        )
    elif deg.store_gs_on > 1 or deg.store_ds_on > 1:
        findings.append(
            make_finding(
                "SMEM006",
                f"{name}: residual store conflicts with mitigations on "
                f"(Gs degree {deg.store_gs_on}, Ds degree {deg.store_ds_on})",
                location={**loc, "stage": "main_loop_stores"},
                context=deg.as_dict(),
            )
        )
    return findings
