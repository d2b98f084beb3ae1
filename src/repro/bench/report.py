"""``python -m repro.bench.report`` — the paper's model-backed artifacts.

Each modeled artifact's numbers come from exactly one function here, and
every consumer reads that function: this CLI's renderers, the
``benchmarks/bench_fig8|fig9|table2`` scripts, :mod:`repro.bench.baseline`'s
suites, ``tests/test_reproduction_quality.py`` and the
``python -m repro.obs.rooflineview`` CLI.

* :func:`figure_series` — one Figure 8/9 panel's per-shape Gflop/s series;
* :func:`table2_speedups` — Table 2's per-shape speedups, read off those
  series;
* :func:`roofline_points` — every registered kernel placed on a device's
  §5.6 roofline.

.. code-block:: bash

    python -m repro.bench.report --list
    python -m repro.bench.report fig8 table2
    python -m repro.bench.report all          # model-only artifacts (fast)

Only the model-backed artifacts (Figures 8/9, Table 2, ablations A1-A3,
rooflines) are offered here; the arithmetic- and training-backed ones
(Table 3, Figure 10, Tables 4/5, Figures 11/12) take minutes and stay under
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, NamedTuple

from ..core.kernels import registered_kernels
from ..core.simplify import transform_mul_counts
from ..core.transforms import winograd_matrices
from ..core.variants import variant_spec
from ..gpusim import (
    RTX3060TI,
    RTX4090,
    estimate_conv,
    estimate_cudnn_fused_winograd,
    estimate_cudnn_gemm,
)
from ..gpusim.calibration import ARCH_EFF_GAMMA
from ..gpusim.device import DeviceSpec
from ..gpusim.trace import simulate_block_iteration, simulate_output_stage
from ..nhwc.tensor import ConvShape
from ..obs.rooflineview import (
    RooflinePoint,
    attainable_gflops,
    render_roofline,
    roofline_point,
)
from .harness import banner, fmt_ofm, series_line, speedup_band, table
from .paper_data import PAPER_TABLE2_FASTEST, PAPER_TABLE2_NHWC
from .shapes import FIG8_PANELS, FIG9_PANELS, Ofm, panel_shapes

__all__ = [
    "FIGURES",
    "EXTRA_VARIANTS",
    "figure_series",
    "table2_speedups",
    "roofline_points",
    "render_panel",
    "render_figure_panels",
    "render_table2",
    "render_ablations",
    "render_rooflines",
    "ARTIFACTS",
    "main",
]


class Figure(NamedTuple):
    device: DeviceSpec
    panels: dict[str, tuple[int, int, list[Ofm]]]
    title: str


#: The two throughput figures: Figure 8 on the RTX 3060 Ti, Figure 9 on the
#: RTX 4090.  Table 2 summarises both.
FIGURES: dict[str, Figure] = {
    "fig8": Figure(RTX3060TI, FIG8_PANELS, "Figure 8"),
    "fig9": Figure(RTX4090, FIG9_PANELS, "Figure 9"),
}

#: Variants the paper plots per panel besides base and base*.
EXTRA_VARIANTS: dict[str, list[str]] = {
    "Gamma_8(4,5)": ["ruse"],
    "Gamma_8(3,6)": ["ruse"],
    "Gamma_8(2,7)": ["ruse"],
    "Gamma_16(10,7)": ["c64"],
    "Gamma_16(9,8)": ["ruse", "c64"],
    "Gamma_16(8,9)": ["ruse", "c64"],
}


def figure_series(fig: str, name: str) -> tuple[list[ConvShape], dict[str, list[float]]]:
    """Modeled Gflop/s of every series of one Figure 8/9 panel.

    Returns the panel's shapes and, per series label in plotting order, one
    value per shape: the Gamma kernel ``name`` with filter transposition,
    ``name*`` without it, the paper's extra ``name^ruse``/``name^c64``
    variants, cuDNN Fused_Winograd (3x3 panels only) and cuDNN
    Implicit_Precomp_GEMM in NCHW and NHWC.
    """
    device, panels, _ = FIGURES[fig]
    shapes = panel_shapes(panels[name])
    gamma: dict[str, dict[str, Any]] = {
        name: dict(variant="base"),
        f"{name}*": dict(variant="base", include_filter_transpose=False),
    }
    gamma.update({f"{name}^{v}": dict(variant=v) for v in EXTRA_VARIANTS.get(name, [])})
    series = {
        label: [estimate_conv(s, device, alpha=a, **kw).gflops for s, a in shapes]
        for label, kw in gamma.items()
    }
    if panels[name][1] == 3:
        series["cuDNN-FusedWinograd"] = [
            estimate_cudnn_fused_winograd(s, device).gflops for s, _ in shapes
        ]
    for layout in ("nchw", "nhwc"):
        series[f"GEMM-{layout.upper()}"] = [
            estimate_cudnn_gemm(s, device, layout=layout).gflops for s, _ in shapes
        ]
    return [s for s, _ in shapes], series


def table2_speedups() -> dict[tuple[str, str], tuple[list[float], list[float]]]:
    """Table 2: per-shape speedups of every kernel on both devices.

    Keyed ``(kernel, device name)`` like :mod:`repro.bench.paper_data`; each
    value holds the base kernel's (filter transposition included) speedup
    over the fastest cuDNN candidate and over NHWC GEMM, per shape of the
    kernel's Figure 8/9 panel.
    """
    out: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    for fig, (device, panels, _) in FIGURES.items():
        for name in panels:
            _, series = figure_series(fig, name)
            cudnn = [
                series[label]
                for label in ("GEMM-NHWC", "GEMM-NCHW", "cuDNN-FusedWinograd")
                if label in series
            ]
            ours = series[name]
            out[(name, device.name)] = (
                [o / max(cands) for o, *cands in zip(ours, *cudnn)],
                [o / g for o, g in zip(ours, series["GEMM-NHWC"])],
            )
    return out


def roofline_points(device: DeviceSpec, eff: float | None = None) -> list[RooflinePoint]:
    """Every registered kernel's §5.6 intensity on ``device``'s roofline.

    Each kernel is placed at ``eff`` (default: the calibrated Gamma issue
    efficiency) of the ceiling at its intensity; points sorted by intensity.
    """
    eff = ARCH_EFF_GAMMA if eff is None else eff
    points = [
        roofline_point(
            device, k.spec.intensity, eff * attainable_gflops(device, k.spec.intensity),
            label=k.name,
        )
        for k in registered_kernels()
    ]
    return sorted(points, key=lambda p: p.intensity)


def render_panel(fig: str, name: str) -> str:
    """One Figure 8/9 panel: every series per shape, then a sparkline each."""
    device, _, title = FIGURES[fig]
    shapes, series = figure_series(fig, name)
    rows = [
        [fmt_ofm(shape)] + [f"{vals[i]:,.0f}" for vals in series.values()]
        for i, shape in enumerate(shapes)
    ]
    lines = [
        banner(
            f"{title} panel {name} — modeled Gflop/s on {device.name}",
            "paper metric: standard-conv FLOPs / modeled time",
        ),
        table(["ofm (NxOHxOWxOC)", *series], rows),
        "",
    ]
    lines += [series_line(label, vals, width=24) for label, vals in series.items()]
    return "\n".join(lines)


def render_figure_panels(fig: str) -> str:
    """All nine panels of Figure 8 or 9."""
    return "\n\n".join(render_panel(fig, name) for name in FIGURES[fig].panels)


def _paper_band(paper: dict[tuple[str, str], tuple[float, float]], key: tuple[str, str]) -> str:
    return speedup_band(paper[key]) if key in paper else ""


def render_table2() -> str:
    rows = [
        [
            name,
            device,
            speedup_band(fastest),
            _paper_band(PAPER_TABLE2_FASTEST, (name, device)),
            speedup_band(nhwc),
            _paper_band(PAPER_TABLE2_NHWC, (name, device)),
        ]
        for (name, device), (fastest, nhwc) in table2_speedups().items()
    ]
    head = banner(
        "Table 2 — speedup over cuDNN (modeled)",
        "ours = base Gamma incl. filter transposition; bands over the Fig 8/9 shapes",
    )
    body = table(
        ["Algorithm", "Device", "vs fastest", "(paper)", "vs NHWC GEMM", "(paper)"], rows
    )
    return head + "\n" + body


def render_ablations() -> str:
    chunks = [banner("Ablations A1-A3 (model/trace summaries)")]
    rows = []
    for alpha, n, r in [(4, 3, 2), (8, 6, 3), (16, 8, 9)]:
        spec = variant_spec(alpha, n, r)
        on = simulate_block_iteration(spec, swizzle_ds=True)
        off = simulate_block_iteration(spec, swizzle_ds=False)
        ys_off = simulate_output_stage(spec, padded=False)
        m = winograd_matrices(n, r, dtype="float64")
        c = transform_mul_counts(m.DT)
        rows.append(
            [
                f"Gamma_{alpha}({n},{r})",
                f"{off.phases / on.phases:.2f}x",
                f"{ys_off.conflict_overhead:.1f}",
                f"{1 - c['paired'] / c['dense']:.0%}",
            ]
        )
    chunks.append(
        table(
            ["kernel", "swizzle store saving", "Ys overhead unpadded", "D^T muls saved"],
            rows,
        )
    )
    return "\n".join(chunks)


def render_rooflines() -> str:
    """§5.6 roofline of every registered kernel on both paper GPUs."""
    chunks = [banner("Rooflines — §5.6 kernel intensities on both devices")]
    for device in (RTX3060TI, RTX4090):
        chunks.append(render_roofline(device, roofline_points(device)))
        chunks.append("")
    return "\n".join(chunks)


ARTIFACTS = {
    "fig8": lambda: render_figure_panels("fig8"),
    "fig9": lambda: render_figure_panels("fig9"),
    "table2": render_table2,
    "ablations": render_ablations,
    "roofline": render_rooflines,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.report",
        description="Regenerate the paper's model-backed artifacts.",
    )
    parser.add_argument(
        "artifacts", nargs="*", help="fig8 fig9 table2 ablations roofline | all"
    )
    parser.add_argument("--list", action="store_true", help="list available artifacts")
    args = parser.parse_args(argv)
    if args.list or not args.artifacts:
        print("available artifacts:", ", ".join(ARTIFACTS), "| all")
        return 0
    names = list(ARTIFACTS) if args.artifacts == ["all"] else args.artifacts
    for name in names:
        if name not in ARTIFACTS:
            print(f"unknown artifact {name!r}; try --list", file=sys.stderr)
            return 2
        print(ARTIFACTS[name]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
