"""Roofline placement and ASCII roofline rendering for the gpusim devices.

The paper's §5.6 argument is a roofline argument: the ``Gamma_alpha`` cache
block sustains ``256/(alpha+r)`` operation/byte (``512/(alpha+2r)`` for c64,
``512/(alpha+2r+n)`` for ruse), and whether a variant wins is largely a
question of where that intensity lands against the device's ridge point
``peak_flops / dram_bandwidth``.  This module makes the placement a
first-class observable:

* :func:`roofline_point` — classify one (intensity, achieved Gflop/s) pair
  under a device's roofline: the attainable ceiling at that intensity, the
  binding side ("memory" left of the ridge, "compute" right of it), and the
  achieved fraction of both ceiling and absolute peak;
* :func:`render_roofline` — a log-log ASCII roofline chart with labelled
  kernel points, so ``python -m repro.obs.kernelprof`` reports read like an
  Nsight-Compute "GPU Speed Of Light" section;
* a CLI, ``python -m repro.obs.rooflineview --device rtx4090``, that prints
  one device's chart of :func:`repro.bench.report.roofline_points`, the
  placement ``python -m repro.bench.report roofline`` prints for both.

Everything here is closed-form over :class:`repro.gpusim.device.DeviceSpec`
datasheet numbers; nothing is fitted.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass

from ..gpusim.device import DEVICES, DeviceSpec

__all__ = [
    "RooflinePoint",
    "roofline_point",
    "ridge_intensity",
    "attainable_gflops",
    "render_roofline",
    "resolve_device",
    "main",
]


def ridge_intensity(device: DeviceSpec) -> float:
    """Ridge point in flop/byte: where the DRAM roof meets the FP32 roof."""
    return device.peak_fp32_gflops / device.dram_bw_gbs


def attainable_gflops(device: DeviceSpec, intensity: float) -> float:
    """Roofline ceiling at ``intensity``: ``min(peak, intensity * DRAM BW)``."""
    if intensity <= 0:
        raise ValueError(f"intensity must be > 0 flop/byte, got {intensity}")
    return min(device.peak_fp32_gflops, intensity * device.dram_bw_gbs)


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel placed under a device roofline.

    ``bound`` is the ceiling the point sits under ("memory" when the
    intensity is left of the ridge, else "compute"); ``pct_of_ceiling`` is
    achieved / attainable at this intensity, ``pct_of_peak`` is achieved /
    absolute FP32 peak.
    """

    label: str
    intensity: float  # flop / byte
    achieved_gflops: float
    attainable_gflops: float
    ridge: float
    bound: str
    pct_of_ceiling: float
    pct_of_peak: float

    def as_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "intensity_flop_per_byte": self.intensity,
            "achieved_gflops": self.achieved_gflops,
            "attainable_gflops": self.attainable_gflops,
            "ridge_flop_per_byte": self.ridge,
            "bound": self.bound,
            "pct_of_ceiling": self.pct_of_ceiling,
            "pct_of_peak": self.pct_of_peak,
        }


def roofline_point(
    device: DeviceSpec, intensity: float, achieved_gflops: float, label: str = ""
) -> RooflinePoint:
    """Place ``(intensity, achieved)`` under ``device``'s roofline."""
    ridge = ridge_intensity(device)
    ceiling = attainable_gflops(device, intensity)
    if achieved_gflops < 0:
        raise ValueError(f"achieved_gflops must be >= 0, got {achieved_gflops}")
    return RooflinePoint(
        label=label,
        intensity=intensity,
        achieved_gflops=achieved_gflops,
        attainable_gflops=ceiling,
        ridge=ridge,
        bound="memory" if intensity < ridge else "compute",
        pct_of_ceiling=achieved_gflops / ceiling,
        pct_of_peak=achieved_gflops / device.peak_fp32_gflops,
    )


_POINT_MARKS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_roofline(
    device: DeviceSpec,
    points: list[RooflinePoint] | tuple[RooflinePoint, ...] = (),
    *,
    width: int = 64,
    height: int = 14,
) -> str:
    """Log-log ASCII roofline chart with a legend for each labelled point.

    The roof is drawn with ``/`` (DRAM-bandwidth slope) and ``-`` (FP32
    peak); points are marked ``A``, ``B``, ... in the order given, with a
    legend line per point giving intensity, achieved level and the verdict.
    """
    ridge = ridge_intensity(device)
    xs = [p.intensity for p in points] or [ridge]
    ys = [p.achieved_gflops for p in points if p.achieved_gflops > 0]
    x_lo = min(min(xs), ridge) / 4.0
    x_hi = max(max(xs), ridge) * 4.0
    y_hi = device.peak_fp32_gflops * 2.0
    y_lo = min([device.peak_fp32_gflops / 1024.0] + ys) / 2.0

    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)

    def col(x: float) -> int:
        return round((math.log10(x) - lx_lo) / (lx_hi - lx_lo) * (width - 1))

    def row(y: float) -> int:
        frac = (math.log10(max(y, y_lo)) - ly_lo) / (ly_hi - ly_lo)
        return (height - 1) - round(frac * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    for c in range(width):
        x = 10 ** (lx_lo + (lx_hi - lx_lo) * c / (width - 1))
        r = row(attainable_gflops(device, x))
        if 0 <= r < height:
            grid[r][c] = "-" if x >= ridge else "/"
    rc = min(width - 1, max(0, col(ridge)))
    grid[row(device.peak_fp32_gflops)][rc] = "+"

    for i, p in enumerate(points):
        mark = _POINT_MARKS[i % len(_POINT_MARKS)]
        r = min(height - 1, max(0, row(max(p.achieved_gflops, y_lo))))
        c = min(width - 1, max(0, col(p.intensity)))
        grid[r][c] = mark

    lines = [
        f"Roofline — {device.name}: peak {device.peak_fp32_gflops:,.0f} Gflop/s, "
        f"DRAM {device.dram_bw_gbs:,.0f} GB/s, ridge {ridge:.1f} flop/B"
    ]
    for r, cells in enumerate(grid):
        y = 10 ** (ly_hi - (ly_hi - ly_lo) * r / (height - 1))
        lines.append(f"{y:>10,.0f} |{''.join(cells)}")
    lines.append(" " * 11 + "+" + "-" * width)
    ticks = [x_lo, math.sqrt(x_lo * x_hi), x_hi]
    tick_text = "".join(f"{t:<{(width // len(ticks))}.2g}" for t in ticks)
    lines.append(" " * 12 + tick_text + " flop/B")
    for i, p in enumerate(points):
        mark = _POINT_MARKS[i % len(_POINT_MARKS)]
        over = (
            "  [above the DRAM roof: L2 reuse the §5.6 per-block intensity ignores]"
            if p.bound == "memory" and p.pct_of_ceiling > 1.0
            else ""
        )
        lines.append(
            f"  {mark} {p.label or '(unnamed)'}: {p.intensity:.2f} flop/B, "
            f"{p.achieved_gflops:,.0f} Gflop/s = {p.pct_of_ceiling:.0%} of the "
            f"{p.bound}-bound ceiling ({p.attainable_gflops:,.0f}), "
            f"{p.pct_of_peak:.0%} of peak{over}"
        )
    return "\n".join(lines)


def resolve_device(name: str) -> DeviceSpec:
    """Case/punctuation-insensitive device lookup (``rtx4090`` == ``RTX4090``)."""
    wanted = "".join(ch for ch in name.lower() if ch.isalnum())
    for key, dev in DEVICES.items():
        if "".join(ch for ch in key.lower() if ch.isalnum()) == wanted:
            return dev
    raise ValueError(f"unknown device {name!r}; known: {', '.join(DEVICES)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.rooflineview",
        description="Place the registered Gamma kernels on a device roofline.",
    )
    parser.add_argument("--device", default="rtx4090", help="rtx3060ti or rtx4090")
    parser.add_argument(
        "--eff",
        type=float,
        default=None,
        help="assumed achieved fraction of the ceiling (default: the "
        "calibrated Gamma issue efficiency)",
    )
    args = parser.parse_args(argv)
    try:
        device = resolve_device(args.device)
    except ValueError as exc:
        parser.error(str(exc))
    from ..bench.report import roofline_points  # lazy: bench.report imports us

    points = roofline_points(device, eff=args.eff)
    print(render_roofline(device, points))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
