"""Tests for the static-analysis subsystem (repro.analysis).

Covers the finding/report plumbing, each of the five passes against clean
in-tree plans (the acceptance criterion: no WARNING-or-worse findings) and
against deliberately corrupted plans (the acceptance criterion: the
expected rule IDs fire), plus the CLI contract.
"""

import dataclasses
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro import obs
from repro.analysis import (
    RULES,
    AnalysisConfig,
    Finding,
    Report,
    Severity,
    StageDegrees,
    analyze_plan,
    apply_suppressions,
    bank_conflict_findings,
    conditioning_findings,
    detect_hazards,
    findings_from_degrees,
    gather_bounds_findings,
    make_finding,
    pipeline_hazard_findings,
    pipeline_intervals,
    plan_contract_findings,
    resource_budget_findings,
    segment_offset_streams,
    stage_degrees,
    vandermonde_condition,
)
from repro.analysis.__main__ import main as analysis_main
from repro.core.boundary import GEMM, Segment
from repro.core.kernels import KernelId, registered_kernels
from repro.core.planner import ConvPlan, plan_convolution
from repro.gpusim.device import RTX3060TI, RTX4090
from repro.nhwc.tensor import ConvShape
from repro.obs.metrics import get_registry
from repro.runtime.executable import compiled_plan
from repro.runtime.signature import ConvSignature


def make_shape(r=3, ow=64, ic=128, oc=128, stride=1):
    ph = pw = r // 2
    ih = iw = ow - 1 + r - 2 * pw
    return ConvShape(
        batch=8, ih=ih, iw=iw, ic=ic, oc=oc, fh=r, fw=r, ph=ph, pw=pw, stride=stride
    )


def clean_plan(r=3, ow=64, alpha=8, variant=None, **kw):
    return plan_convolution(make_shape(r=r, ow=ow, **kw), alpha=alpha, variant=variant)


def fake_kernel(spec):
    """A kernel stub carrying a (possibly corrupted) spec."""
    return SimpleNamespace(spec=spec, name=spec.name)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


# ---------------------------------------------------------------------------
# findings / report plumbing
# ---------------------------------------------------------------------------


class TestFindings:
    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.ERROR.label == "error"

    def test_make_finding_pulls_rule_metadata(self):
        f = make_finding("PLAN001", "boom")
        assert f.severity is Severity.ERROR
        assert f.section == "§4.1"
        assert f.fix_hint

    def test_make_finding_rejects_unknown_rule(self):
        with pytest.raises(KeyError):
            make_finding("NOPE999", "boom")

    def test_severity_override(self):
        f = make_finding("PLAN001", "boom", severity=Severity.INFO)
        assert f.severity is Severity.INFO

    def test_rule_registry_families(self):
        fams = {rid[:3] for rid in RULES} | {rid[:4] for rid in RULES}
        assert {"PLAN", "BND", "SMEM", "RES", "COND"} <= fams
        for rule in RULES.values():
            assert rule.section.startswith("§")
            assert rule.fix_hint

    def test_report_ok_and_strict(self):
        warn = make_finding("PLAN006", "w")
        info = make_finding("SMEM006", "i")
        rep = Report(subject={}, findings=(warn, info))
        assert rep.ok() and not rep.ok(strict=True)
        assert Report(subject={}, findings=(info,)).ok(strict=True)
        err = make_finding("PLAN001", "e")
        assert not Report(subject={}, findings=(err,)).ok()
        assert Report(subject={}, findings=(err,)).worst is Severity.ERROR

    def test_report_counts_and_render(self):
        rep = Report(
            subject={"shape": "s"},
            findings=(make_finding("PLAN001", "e"), make_finding("SMEM006", "i")),
            suppressed={"RES004": 2},
        )
        assert rep.counts() == {"error": 1, "warning": 0, "info": 1}
        text = rep.render()
        assert "PLAN001" in text and "suppressed: RES004 x2" in text
        doc = json.loads(rep.to_json())
        assert doc["ok"] is False and doc["counts"]["error"] == 1

    def test_suppression(self):
        fs = [make_finding("SMEM006", "a"), make_finding("SMEM006", "b"),
              make_finding("PLAN001", "c")]
        kept, dropped = apply_suppressions(fs, ["SMEM006"])
        assert [f.rule_id for f in kept] == ["PLAN001"]
        assert dropped == {"SMEM006": 2}

    def test_merged_with(self):
        a = Report(subject={}, findings=(make_finding("PLAN001", "x"),),
                   suppressed={"SMEM006": 1})
        b = Report(subject={}, findings=(make_finding("BND001", "y"),),
                   suppressed={"SMEM006": 2})
        m = a.merged_with(b)
        assert len(m) == 2 and m.suppressed == {"SMEM006": 3}


# ---------------------------------------------------------------------------
# pass 1: plan contracts
# ---------------------------------------------------------------------------


class TestPlanContracts:
    def test_clean_plans_have_no_findings(self):
        for r in (2, 3, 5):
            assert plan_contract_findings(clean_plan(r=r)) == []

    def test_gemm_plan_out_of_scope(self):
        p = plan_convolution(make_shape(stride=2))
        assert p.algorithm == "gemm"
        assert plan_contract_findings(p) == []

    def test_plan001_alpha_arithmetic(self):
        p = clean_plan()
        seg = p.segments[0]
        bad_spec = dataclasses.replace(seg.kernel.spec, alpha=9)
        bad = dataclasses.replace(
            p, segments=(Segment(fake_kernel(bad_spec), seg.start, seg.width),)
            + p.segments[1:]
        )
        assert "PLAN001" in rule_ids(plan_contract_findings(bad))

    def test_plan001_filter_width_mismatch(self):
        p = clean_plan(r=3)
        seg = p.segments[0]
        wrong_r = KernelId(8, 7, 2)  # r=2 kernel on an r=3 problem
        bad = dataclasses.replace(
            p, segments=(Segment(wrong_r, seg.start, seg.width),) + p.segments[1:]
        )
        assert "PLAN001" in rule_ids(plan_contract_findings(bad))

    def test_plan002_stride(self):
        p = clean_plan()
        bad = dataclasses.replace(p, shape=make_shape(stride=2, ow=64))
        assert "PLAN002" in rule_ids(plan_contract_findings(bad))

    def test_plan002_oversized_padding(self):
        p = clean_plan()
        s = p.shape
        bad_shape = dataclasses.replace(s, ph=s.fh, pw=s.fw)
        bad = dataclasses.replace(p, shape=bad_shape)
        assert "PLAN002" in rule_ids(plan_contract_findings(bad))

    def test_plan003_gap_overlap_and_shortfall(self):
        p = clean_plan(ow=64)
        k = p.segments[0].kernel
        gap = dataclasses.replace(
            p, segments=(Segment(k, 0, 6), Segment(k, 12, 52 if 12 + 52 == 64 else 52))
        )
        ids = rule_ids(plan_contract_findings(gap))
        assert "PLAN003" in ids
        empty = dataclasses.replace(p, segments=())
        assert "PLAN003" in rule_ids(plan_contract_findings(empty))

    def test_plan004_divisibility(self):
        p = clean_plan(ow=64)
        k = p.segments[0].kernel
        cov = k.spec.coverage
        bad = dataclasses.replace(
            p, segments=(Segment(k, 0, cov + 1), Segment(GEMM, cov + 1, 64 - cov - 1))
        )
        assert "PLAN004" in rule_ids(plan_contract_findings(bad))

    def test_plan005_tail_structure(self):
        p = clean_plan(ow=64)
        k = p.segments[0].kernel
        cov = k.spec.coverage
        bad = dataclasses.replace(
            p, segments=(Segment(GEMM, 0, 1), Segment(k, 1, 64 - 1 - (64 - 1) % cov),
                         Segment(GEMM, 64 - (64 - 1) % cov, (64 - 1) % cov))
        )
        assert "PLAN005" in rule_ids(plan_contract_findings(bad))

    def test_plan006_reducible_tail(self):
        p = clean_plan(ow=64)
        k = p.segments[0].kernel
        cov = k.spec.coverage
        bad = dataclasses.replace(
            p, segments=(Segment(k, 0, 64 - 2 * cov), Segment(GEMM, 64 - 2 * cov, 2 * cov))
        )
        f = plan_contract_findings(bad)
        assert "PLAN006" in rule_ids(f)
        assert all(x.severity is Severity.WARNING for x in f if x.rule_id == "PLAN006")

    def test_plan007_c64_channels(self):
        p = plan_convolution(
            make_shape(r=9, ow=64, ic=96, oc=96), alpha=16, variant="c64"
        )
        assert "PLAN007" in rule_ids(plan_contract_findings(p))
        ok = plan_convolution(make_shape(r=9, ow=64), alpha=16, variant="c64")
        assert "PLAN007" not in rule_ids(plan_contract_findings(ok))


# ---------------------------------------------------------------------------
# pass 2: gather-index bounds
# ---------------------------------------------------------------------------


class TestGatherBounds:
    def test_clean_plans_in_bounds(self):
        for r in (2, 3, 5, 9):
            p = clean_plan(r=r, alpha=16 if r == 9 else 8)
            assert gather_bounds_findings(p) == []

    def test_streams_cover_all_segments(self):
        p = clean_plan(ow=61)  # forces a boundary chain + tail
        streams = segment_offset_streams(p)
        assert len(streams) == len(p.segments)
        assert any(s.kind == "gemm" for s in streams)
        # every winograd stream reads the left/right halo (implicit padding)
        assert all(s.reads_padding(p.shape) for s in streams if s.kind == "winograd")

    def test_bnd001_underflow(self):
        p = clean_plan(ow=64)
        k = p.segments[0].kernel
        cov = k.spec.coverage
        # shift the leading segment before the padded input start
        bad = dataclasses.replace(
            p, segments=(Segment(k, -cov, 64 + cov - 64 % cov),)
        )
        ids = rule_ids(gather_bounds_findings(bad))
        assert "BND001" in ids

    def test_bnd002_overflow(self):
        p = clean_plan(ow=64)
        k = p.segments[0].kernel
        # one tile too many: widen the segment past OW
        cov = k.spec.coverage
        bad = dataclasses.replace(p, segments=(Segment(k, 0, 64 + cov),))
        assert "BND002" in rule_ids(gather_bounds_findings(bad))

    def test_bnd003_gemm_strip(self):
        p = clean_plan(ow=64)
        bad = dataclasses.replace(p, segments=(Segment(GEMM, 60, 10),))
        assert "BND003" in rule_ids(gather_bounds_findings(bad))

    def test_strided_gemm_strip(self):
        """A runtime-compiled stride-2 plan reads ``(width - 1)*2 + FW``
        columns: clean as compiled, BND003 one column wider (which the
        unit-stride strip ``width + FW - 1`` would still fit)."""
        sig = ConvSignature.resolve(
            ih=9, iw=9, ic=8, oc=16, fh=3, fw=3, algorithm="gemm", stride=2
        )
        p = compiled_plan(sig)
        (seg,) = p.segments
        assert (p.shape.stride, seg.start, seg.width) == (2, 0, 5)
        (stream,) = segment_offset_streams(p)
        assert (stream.row_lo, stream.row_hi, stream.col_lo, stream.col_hi) == (-1, 10, -1, 10)
        assert gather_bounds_findings(p) == []
        assert analyze_plan(p).errors == []
        wide = dataclasses.replace(p, segments=(Segment(GEMM, 0, 6),))
        assert rule_ids(gather_bounds_findings(wide)) == ["BND003"]


# ---------------------------------------------------------------------------
# pass 3: SMEM hazards and bank conflicts
# ---------------------------------------------------------------------------


def spec_of(alpha, n, r, variant="base"):
    return KernelId(alpha, n, r, variant).spec


class TestPipelineHazards:
    def test_shipped_kernels_are_hazard_free(self):
        for k in registered_kernels(include_extended=True):
            assert pipeline_hazard_findings(k.spec) == []

    def test_overlap_on_single_buffer_is_raw(self):
        # forcing the overlapped schedule onto the single-buffered kernel:
        # the next load writes the buffer while compute reads it
        spec = spec_of(16, 14, 3)
        assert not spec.double_buffered
        f = pipeline_hazard_findings(spec, overlapped=True)
        assert "SMEM002" in rule_ids(f)

    def test_dropped_barrier_is_raw(self):
        spec = spec_of(16, 14, 3)
        f = pipeline_hazard_findings(spec, assume_sync=False)
        assert "SMEM002" in rule_ids(f)

    def test_overlap_without_barrier_adds_war(self):
        # skewed loads reach back into the previous compute's read window
        spec = spec_of(16, 14, 3)
        f = pipeline_hazard_findings(spec, overlapped=True, assume_sync=False)
        assert {"SMEM001", "SMEM002"} <= set(rule_ids(f))

    def test_double_buffered_needs_the_swap_barrier(self):
        # two buffers alternate, but without the swap barrier the i+2 load
        # reaches back into buffer i%2 while compute[i] still reads it
        spec = spec_of(8, 6, 3)
        assert spec.double_buffered
        assert pipeline_hazard_findings(spec) == []
        f = pipeline_hazard_findings(spec, assume_sync=False)
        assert "SMEM001" in rule_ids(f)

    def test_forced_single_buffer_count(self):
        # a double-buffered schedule squeezed into one buffer must conflict
        spec = spec_of(8, 6, 3)
        f = pipeline_hazard_findings(spec, buffers=1, overlapped=True)
        assert "SMEM002" in rule_ids(f)

    def test_interval_model_shape(self):
        spec = spec_of(8, 6, 3)
        iv = pipeline_intervals(spec, 3)
        assert sum(1 for p in iv if p.access == "write") == 3
        assert sum(1 for p in iv if p.access == "read") == 3
        assert detect_hazards(iv) == []

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            pipeline_intervals(spec_of(8, 6, 3), 0)


class TestBankConflictLint:
    def test_shipped_layouts_load_and_stage_conflict_free(self):
        for k in registered_kernels(include_extended=True):
            deg = stage_degrees(k.spec)
            assert deg.load_gs_on == 1 and deg.load_ds_on == 1
            assert deg.staging_on == 1
            assert deg.staging_off > 1  # the padding is load-bearing

    def test_unpadded_ys_fires_smem004(self):
        spec = spec_of(8, 6, 3)
        f = bank_conflict_findings(spec, padded_ys=False)
        assert "SMEM004" in rule_ids(f)

    def test_conflicting_arrangement_fires_smem003(self):
        spec = spec_of(16, 14, 3)
        # all lanes on two Ds columns a multiple of 32 words apart -> 2-way
        arrangement = lambda lane: (lane % 16, 0 if lane % 2 else 32)
        f = bank_conflict_findings(spec, arrangement=arrangement)
        assert "SMEM003" in rule_ids(f)

    def test_residual_store_conflicts_are_info(self):
        f = bank_conflict_findings(spec_of(8, 6, 3))
        assert rule_ids(f) == ["SMEM006"]
        assert all(x.severity is Severity.INFO for x in f)

    def test_mitigation_regression_fires_smem005(self):
        deg = StageDegrees(
            store_gs_on=8, store_ds_on=8, store_gs_off=4, store_ds_off=8,
            load_gs_on=1, load_ds_on=1, staging_on=1, staging_off=4,
        )
        f = findings_from_degrees("synthetic", deg)
        assert "SMEM005" in rule_ids(f)
        assert all(x.severity is Severity.WARNING for x in f if x.rule_id == "SMEM005")


# ---------------------------------------------------------------------------
# pass 4: resource budgets
# ---------------------------------------------------------------------------


class TestResourceBudget:
    def test_shipped_kernels_fit_both_devices(self):
        for k in registered_kernels(include_extended=True):
            for dev in (RTX3060TI, RTX4090):
                f = resource_budget_findings(k.spec, dev)
                assert all(x.severity is Severity.INFO for x in f)

    def test_res001_smem_cap(self):
        spec = dataclasses.replace(spec_of(8, 6, 3), smem_bytes=65536)
        assert rule_ids(resource_budget_findings(spec, RTX3060TI)) == ["RES001"]

    def test_res002_thread_cap(self):
        spec = dataclasses.replace(spec_of(8, 6, 3), threads=2048)
        assert rule_ids(resource_budget_findings(spec, RTX3060TI)) == ["RES002"]

    def test_res003_register_pressure(self):
        spec = dataclasses.replace(spec_of(8, 6, 3), regs_per_thread=300)
        assert rule_ids(resource_budget_findings(spec, RTX3060TI)) == ["RES003"]

    def test_res004_low_occupancy_is_info(self):
        spec = spec_of(16, 9, 8, "ruse")
        f = resource_budget_findings(spec, RTX3060TI)
        assert "RES004" in rule_ids(f)
        assert all(x.severity is Severity.INFO for x in f)


# ---------------------------------------------------------------------------
# pass 5: transform conditioning
# ---------------------------------------------------------------------------


class TestConditioning:
    def test_canonical_alpha8_clean(self):
        for n, r in ((7, 2), (6, 3), (5, 4), (3, 2)):
            assert conditioning_findings(n, r) == []

    def test_alpha16_magnitude_note(self):
        f = conditioning_findings(14, 3)
        assert rule_ids(f) == ["COND003"]
        assert all(x.severity is Severity.INFO for x in f)

    def test_duplicate_points_fire_cond002(self):
        pts = [Fraction(0), Fraction(1), Fraction(1), Fraction(2), Fraction(-2),
               Fraction(3), Fraction(-3)]
        f = conditioning_findings(6, 3, points=pts)
        assert rule_ids(f) == ["COND002"]

    def test_bad_points_fire_cond001(self):
        pts = [Fraction(i) for i in range(7)]  # 0..6: magnitudes explode
        f = conditioning_findings(6, 3, points=pts)
        assert rule_ids(f) == ["COND001"]

    def test_vandermonde_condition_monotone(self):
        good = vandermonde_condition([Fraction(0), Fraction(1), Fraction(-1)])
        bad = vandermonde_condition([Fraction(0), Fraction(5), Fraction(6)])
        assert bad > good


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class TestEngine:
    def test_clean_plan_passes_strict(self):
        rep = analyze_plan(clean_plan())
        assert rep.ok(strict=True)
        assert rep.subject["algorithm"] == "im2col-winograd"
        assert rep.subject["kernels"]

    def test_spec_override_corruption(self):
        p = clean_plan()
        name = p.primary.spec.name
        bad = dataclasses.replace(p.primary.spec, regs_per_thread=300)
        rep = analyze_plan(p, config=AnalysisConfig(spec_overrides={name: bad}))
        assert "RES003" in rep.rule_ids()

    def test_config_corruptions_flow_through(self):
        p = clean_plan()
        rep = analyze_plan(p, config=AnalysisConfig(padded_ys=False))
        assert "SMEM004" in rep.rule_ids()
        rep = analyze_plan(p, config=AnalysisConfig(assume_sync=False, overlapped=True,
                                                    buffers=1))
        assert {"SMEM001", "SMEM002"} & set(rep.rule_ids())

    def test_suppression_recorded(self):
        rep = analyze_plan(clean_plan(), suppress=["SMEM006", "RES004", "COND003"])
        assert rep.findings == ()
        assert rep.suppressed.get("SMEM006", 0) >= 1

    def test_counters_emitted(self):
        obs.enable()
        try:
            get_registry().reset()
            rep = analyze_plan(clean_plan())
            reg = get_registry()
            assert reg.counter("analysis.plans").total() == 1
            infos = sum(1 for f in rep.findings if f.severity is Severity.INFO)
            assert reg.counter("analysis.findings.info").total() == infos
        finally:
            obs.disable()

    def test_gemm_plan_is_trivially_clean(self):
        rep = analyze_plan(plan_convolution(make_shape(stride=2)))
        assert rep.findings == ()
        assert rep.ok(strict=True)


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_single_shape_text(self, capsys):
        rc = analysis_main(["--shape", "32x64x64x128", "--kernel", "g8n6r3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: PASS" in out

    def test_single_shape_json(self, capsys):
        rc = analysis_main(
            ["--shape", "32x64x64x128", "--kernel", "g8n6r3", "--json", "--strict"]
        )
        cap = capsys.readouterr()
        assert rc == 0
        doc = json.loads(cap.out)  # stdout must be pure JSON
        assert doc["ok"] is True and doc["device"] == "RTX3060Ti"
        assert doc["summary"]["analyzed"] == 1

    def test_kernel_token_note_goes_to_stderr(self, capsys):
        rc = analysis_main(["--shape", "32x64x64x128", "--kernel", "g8n5r3", "--json"])
        cap = capsys.readouterr()
        assert rc == 0
        json.loads(cap.out)
        assert "inconsistent" in cap.err

    def test_suppress_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            analysis_main(["--suppress", "NOPE999"])
        assert exc.value.code == 2

    def test_suppress_drops_rule(self, capsys):
        rc = analysis_main(
            ["--shape", "32x64x64x128", "--kernel", "g8n6r3", "--json",
             "--suppress", "SMEM006"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        plan = doc["plans"][0]
        assert "SMEM006" in plan["suppressed"]
        assert all(f["rule_id"] != "SMEM006" for f in plan["findings"])

    def test_list_rules(self, capsys):
        rc = analysis_main(["--list-rules", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(doc) == set(RULES)

    def test_device_selection(self, capsys):
        rc = analysis_main(
            ["--shape", "32x64x64x128", "--kernel", "g16r9", "--device", "RTX4090",
             "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0 and doc["device"] == "RTX4090"
