"""Tests for the persistent perf-baseline store (repro.bench.baseline)."""

import json
import pathlib

import pytest

from repro.bench import FIG8_PANELS, FIG9_PANELS
from repro.bench.baseline import (
    SCHEMA_VERSION,
    SMOKE_POINTS,
    SUITES,
    compare_metrics,
    load_baseline,
    main,
    metric_direction,
    suite_metrics,
    write_baseline,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestDirectionRegistry:
    def test_lower_better(self):
        for name in (
            "smoke/RTX4090/g8r3_base/128x96x96x64/time_ms",
            "x/smem.main_loop.degree",
            "x/tail_loss",
            "x/waves",
            "obs_overhead/disabled.us_per_call",
            "x/gemm_tail.column_fraction",
            "obs_overhead/enabled_disabled.ratio",
        ):
            assert metric_direction(name) == "lower", name

    def test_higher_better(self):
        for name in (
            "fig8/Gamma_8(6,3)/64x128x128x64/gflops",
            "x/occupancy.fraction",
            "x/pipeline.utilisation",
            "x/roofline.pct_of_ceiling",
            "table2/Gamma_8(6,3)/RTX4090/speedup_min",
        ):
            assert metric_direction(name) == "higher", name


class TestCompare:
    BASE = {"a/gflops": 100.0, "b/time_ms": 2.0}

    def test_identical_passes(self):
        rows, regressions = compare_metrics(self.BASE, dict(self.BASE))
        assert regressions == 0
        assert all(r[-1] == "ok" for r in rows)

    def test_direction_aware_regression(self):
        # gflops drop and time rise both regress...
        _, n = compare_metrics(self.BASE, {"a/gflops": 90.0, "b/time_ms": 2.0})
        assert n == 1
        _, n = compare_metrics(self.BASE, {"a/gflops": 100.0, "b/time_ms": 2.4})
        assert n == 1
        # ...while moves in the good direction never fail, however large.
        rows, n = compare_metrics(self.BASE, {"a/gflops": 500.0, "b/time_ms": 0.1})
        assert n == 0
        assert all(r[-1] == "improved" for r in rows)

    def test_tolerance_band(self):
        _, n = compare_metrics(self.BASE, {"a/gflops": 99.0, "b/time_ms": 2.01},
                               tolerance=0.02)
        assert n == 0
        _, n = compare_metrics(self.BASE, {"a/gflops": 99.0, "b/time_ms": 2.01},
                               tolerance=0.001)
        assert n == 2

    def test_missing_metric_is_regression(self):
        rows, n = compare_metrics(self.BASE, {"a/gflops": 100.0})
        assert n == 1
        assert any(r[-1] == "MISSING" for r in rows)

    def test_new_metric_is_not(self):
        rows, n = compare_metrics(self.BASE, {**self.BASE, "c/gflops": 5.0})
        assert n == 0
        assert any(r[-1] == "new" for r in rows)

    def test_zero_baseline_absolute_fallback(self):
        _, n = compare_metrics({"x/tail_loss": 0.0}, {"x/tail_loss": 0.5},
                               tolerance=0.02)
        assert n == 1
        _, n = compare_metrics({"x/tail_loss": 0.0}, {"x/tail_loss": 0.0})
        assert n == 0


class TestStore:
    def test_write_load_roundtrip(self, tmp_path):
        path = write_baseline(
            tmp_path / "BENCH_x.json", {"a/gflops": 1.25}, tag="x", suite="smoke"
        )
        doc = load_baseline(path)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["tag"] == "x" and doc["suite"] == "smoke"
        assert doc["metrics"] == {"a/gflops": 1.25}

    def test_bad_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": 99, "metrics": {"a": 1.0}}))
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(p)
        p.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "metrics": {}}))
        with pytest.raises(ValueError, match="no metrics"):
            load_baseline(p)


class TestSuites:
    def test_smoke_suite_deterministic_and_complete(self):
        m1 = suite_metrics("smoke")
        m2 = suite_metrics("smoke")
        assert m1 == m2  # the model is deterministic; so must the suite be
        # Every pinned point contributes its core profiler metrics.
        for dev, alpha, r, variant, (n, oh, ow, oc) in SMOKE_POINTS:
            prefix = f"smoke/{dev}/g{alpha}r{r}_{variant}/{n}x{oh}x{ow}x{oc}"
            for suffix in ("time_ms", "gflops", "occupancy.fraction", "waves",
                           "smem.main_loop.degree", "roofline.pct_of_ceiling"):
                assert f"{prefix}/{suffix}" in m1
        assert all(isinstance(v, float) for v in m1.values())

    @pytest.mark.parametrize("suite,panels", [("fig8", FIG8_PANELS), ("fig9", FIG9_PANELS)])
    def test_figure_suite_pins_base_and_star_per_point(self, suite, panels):
        metrics = suite_metrics(suite)
        assert len(metrics) == 2 * sum(len(p[2]) for p in panels.values())

    def test_table2_suite_pins_both_band_endpoints(self):
        """Nine kernels on two devices, a min and a max each."""
        assert len(suite_metrics("table2")) == 2 * 18

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_metrics("nope")

    def test_registry_names(self):
        assert set(SUITES) == {"smoke", "fig8", "fig9", "table2", "full"}


class TestCli:
    def test_capture_then_self_compare(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        assert main(["capture", "--suite", "smoke", "--tag", "t",
                     "--out", str(out)]) == 0
        assert main(["compare", "--against", str(out)]) == 0
        text = capsys.readouterr().out
        assert "OK" in text

    def test_compare_rejects_perturbation(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        main(["capture", "--suite", "smoke", "--tag", "t", "--out", str(out)])
        doc = json.loads(out.read_text())
        name = next(k for k in doc["metrics"] if k.endswith("/gflops"))
        doc["metrics"][name] *= 1.10  # baseline demands 10% more than reality
        perturbed = tmp_path / "BENCH_p.json"
        perturbed.write_text(json.dumps(doc))
        rc = main(["compare", "--against", str(perturbed)])
        text = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSED" in text and name in text

    def test_compare_two_files(self, tmp_path, capsys):
        a = write_baseline(tmp_path / "a.json", {"x/gflops": 100.0},
                           tag="a", suite="smoke")
        b = write_baseline(tmp_path / "b.json", {"x/gflops": 50.0},
                           tag="b", suite="smoke")
        assert main(["compare", "--against", str(a), "--candidate", str(b)]) == 1
        assert main(["compare", "--against", str(b), "--candidate", str(a)]) == 0
        capsys.readouterr()

    def test_compare_tolerance_flag(self, tmp_path, capsys):
        a = write_baseline(tmp_path / "a.json", {"x/gflops": 100.0},
                           tag="a", suite="smoke")
        b = write_baseline(tmp_path / "b.json", {"x/gflops": 97.0},
                           tag="b", suite="smoke")
        assert main(["compare", "--against", str(a), "--candidate", str(b),
                     "--tolerance", "0.05"]) == 0
        assert main(["compare", "--against", str(a), "--candidate", str(b),
                     "--tolerance", "0.01"]) == 1
        capsys.readouterr()

    def test_missing_baseline_file_exit_2(self, tmp_path, capsys):
        assert main(["compare", "--against", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_list_suites(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out.split()
        assert "smoke" in out and "full" in out


class TestCommittedSeed:
    """The committed BENCH_seed.json must accept the current code."""

    def test_seed_file_exists_and_matches(self):
        path = REPO_ROOT / "BENCH_seed.json"
        assert path.exists(), "BENCH_seed.json must be committed at the repo root"
        doc = load_baseline(path)
        assert doc["suite"] == "smoke"
        rows, regressions = compare_metrics(doc["metrics"], suite_metrics("smoke"))
        bad = [r for r in rows if r[-1] in ("REGRESSED", "MISSING")]
        assert regressions == 0, f"seed baseline regressed: {bad}"
