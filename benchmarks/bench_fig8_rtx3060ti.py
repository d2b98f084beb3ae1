"""Figure 8: Gamma kernel throughput vs cuDNN on the RTX 3060 Ti model.

Regenerates all nine panels: for each kernel's ten ofm shapes, the modeled
Gflop/s of the Gamma kernel (with and without filter transposition — the
paper's ``*``), its ruse/c64 variants where the paper plots them, cuDNN
Implicit_Precomp_GEMM in NCHW and NHWC, and (for the 3x3 panel)
cuDNN Fused_Winograd.  The series come from
:func:`repro.bench.report.figure_series`.
"""

from __future__ import annotations

import pytest

from repro.bench import FIG8_PANELS
from repro.bench.report import render_figure_panels, render_panel


@pytest.mark.parametrize("panel", sorted(FIG8_PANELS))
def test_fig8_panel(benchmark, artifact, panel):
    text = benchmark(render_panel, "fig8", panel)
    artifact(f"fig8_{panel.replace('(', '_').replace(',', '_').replace(')', '')}", text)


if __name__ == "__main__":
    print(render_figure_panels("fig8"))
