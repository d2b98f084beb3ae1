"""Tests for the bench substrate (shapes, flops, harness, report CLI)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.bench import (
    FIG8_PANELS,
    FIG9_PANELS,
    TABLE3_SHAPES,
    banner,
    fmt_ofm,
    gflops,
    modeled_training_acceleration,
    panel_shapes,
    series_line,
    speedup_band,
    standard_flops,
    table,
    theoretical_acceleration,
)
from repro.bench.report import ARTIFACTS, main, render_rooflines, render_table2
from repro.nhwc import ConvShape


class TestShapeLists:
    def test_nine_panels_each_figure(self):
        assert len(FIG8_PANELS) == len(FIG9_PANELS) == 9
        assert set(FIG8_PANELS) == set(FIG9_PANELS)

    def test_ten_shapes_per_panel(self):
        for panels in (FIG8_PANELS, FIG9_PANELS):
            for name, (alpha, r, ofms) in panels.items():
                assert len(ofms) == 10, name

    def test_panel_r_matches_name(self):
        for name, (alpha, r, _) in FIG8_PANELS.items():
            n = alpha - r + 1
            assert f"({n},{r})" in name

    def test_table3_nine_subtables_four_shapes(self):
        assert len(TABLE3_SHAPES) == 9
        for name, (_, _, ofms) in TABLE3_SHAPES.items():
            assert len(ofms) == 4, name

    def test_panel_shapes_expansion(self):
        shapes = panel_shapes(FIG8_PANELS["Gamma_8(6,3)"])
        assert len(shapes) == 10
        shape, alpha = shapes[0]
        assert alpha == 8
        assert isinstance(shape, ConvShape)
        assert shape.ic == shape.oc  # §6: IC == OC

    def test_paper_padding_convention(self):
        """Every experiment shape uses r x r filters with floor(r/2) pad."""
        for panels in (FIG8_PANELS, FIG9_PANELS, TABLE3_SHAPES):
            for name, panel in panels.items():
                shape, _ = panel_shapes(panel)[0]
                assert shape.fh == shape.fw
                assert shape.ph == shape.fh // 2


class TestFlops:
    def test_standard_flops(self):
        s = ConvShape.from_ofm(2, 4, 4, 8, r=3, ic=16)
        assert standard_flops(s) == 2 * 2 * 8 * 4 * 4 * 3 * 3 * 16

    def test_gflops(self):
        s = ConvShape.from_ofm(2, 4, 4, 8, r=3)
        assert gflops(s, 1.0) == pytest.approx(s.flops / 1e9)
        with pytest.raises(ValueError):
            gflops(s, 0.0)

    def test_phi_curve(self):
        """Phi is convex and symmetric about (alpha+1)/2 (§6.1.2)."""
        assert theoretical_acceleration(6, 3) == pytest.approx(2.25)
        assert theoretical_acceleration(4, 5) == theoretical_acceleration(5, 4)
        assert theoretical_acceleration(4, 5) > theoretical_acceleration(6, 3)
        assert theoretical_acceleration(2, 7) == theoretical_acceleration(7, 2)


class TestHarness:
    def test_banner(self):
        out = banner("Title", "detail")
        assert "Title" in out and "detail" in out

    def test_table_alignment(self):
        out = table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(map(len, lines))) == 1  # all rows equal width

    def test_table_empty_rows(self):
        out = table(["a", "bb"], [])
        lines = out.splitlines()
        assert lines == ["a  bb", "-  --"]

    def test_table_one_shot_iterable_rows(self):
        out = table(["a", "b"], iter([[1, 2], [3, 4]]))
        assert out.splitlines()[-1].split() == ["3", "4"]

    def test_table_ragged_rows(self):
        out = table(["a", "b"], [[1], [2, 3, 4]])
        lines = out.splitlines()
        assert len(set(map(len, lines))) == 1  # short rows pad, long ones fit
        assert "4" in lines[-1]

    def test_series_line(self):
        out = series_line("x", [1, 2, 3])
        assert "[1 .. 3]" in out
        assert series_line("x", []).endswith("(empty)")
        assert series_line("x", [5, 5, 5])  # constant series

    def test_fmt_ofm(self):
        s = ConvShape.from_ofm(32, 64, 66, 128, r=3)
        assert fmt_ofm(s) == "32x64x66x128"

    def test_speedup_band(self):
        assert speedup_band([1.0, 2.0, 1.5]) == "1.000-2.000x"


class TestReportCLI:
    def test_artifact_registry(self):
        assert set(ARTIFACTS) == {"fig8", "fig9", "table2", "ablations", "roofline"}

    def test_table2_renders(self):
        out = render_table2()
        assert "Gamma_16(9,8)" in out and "RTX4090" in out

    def test_main_list(self, capsys):
        assert main(["--list"]) == 0
        assert "fig8" in capsys.readouterr().out

    def test_main_unknown(self, capsys):
        assert main(["nope"]) == 2

    def test_main_renders_requested(self, capsys):
        assert main(["ablations"]) == 0
        assert "Ablations" in capsys.readouterr().out

    def test_rooflineview_cli_prints_the_report_chart(self):
        """``python -m repro.obs.rooflineview --device rtx4090`` prints the
        RTX 4090 chart of ``python -m repro.bench.report roofline``."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "repro.obs.rooflineview", "--device", "rtx4090"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        chart = out.rstrip("\n")
        assert chart.startswith("Roofline — RTX4090")
        assert chart in render_rooflines()


class TestTrainingModel:
    def test_identical_engines_give_unity(self):
        from repro.dlframe.models import vgg16
        from repro.gpusim import RTX3060TI

        a = modeled_training_acceleration(
            vgg16(image=16, width_mult=0.25, engine="gemm"),
            vgg16(image=16, width_mult=0.25, engine="gemm"),
            image=16,
            batch=64,
            device=RTX3060TI,
        )
        assert a == pytest.approx(1.0)
