"""Figure 9: Gamma kernel throughput vs cuDNN on the RTX 4090 model.

Same nine panels as Figure 8, with the paper's larger RTX 4090 shape lists.
"""

from __future__ import annotations

import pytest

from repro.bench import FIG9_PANELS
from repro.bench.report import render_figure_panels, render_panel


@pytest.mark.parametrize("panel", sorted(FIG9_PANELS))
def test_fig9_panel(benchmark, artifact, panel):
    text = benchmark(render_panel, "fig9", panel)
    artifact(f"fig9_{panel.replace('(', '_').replace(',', '_').replace(')', '')}", text)


if __name__ == "__main__":
    print(render_figure_panels("fig9"))
