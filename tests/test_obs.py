"""Tests for the observability core: tracer spans + metrics registry."""

import numpy as np
import pytest

from repro import ConvShape, conv2d_im2col_winograd, obs
from repro.bench.flops import standard_flops
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import aggregate
from repro.obs.telemetry import TraceContext
from repro.obs.tracer import NULL_SPAN, Tracer

TRACE = "ab" * 16
SPAN = "cd" * 8


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with instrumentation off and empty."""
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    yield
    obs.disable()
    obs.reset()
    obs.get_registry().reset()


class TestSpans:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("root", job=1):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert [r.name for r in tracer.roots] == ["root"]
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]
        # depth-first iteration preserves sibling order
        names = [(rec.name, depth) for rec, depth in tracer.iter_spans()]
        assert names == [("root", 0), ("a", 1), ("a1", 2), ("b", 1)]

    def test_timing_and_self_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.end_s >= outer.start_s
        assert inner.start_s >= outer.start_s and inner.end_s <= outer.end_s
        assert outer.self_s == pytest.approx(outer.duration_s - inner.duration_s)

    def test_set_attaches_attributes(self):
        tracer = Tracer()
        with tracer.span("s", a=1) as sp:
            sp.set(b=2)
        assert tracer.roots[0].attrs == {"a": 1, "b": 2}

    def test_aggregate_no_double_count_on_recursion(self):
        tracer = Tracer()
        with tracer.span("f"):
            with tracer.span("f"):
                pass
        agg = aggregate(tracer)
        assert agg["f"]["count"] == 2
        # cumulative counts the outer span only; self sums both
        assert agg["f"]["total_s"] == pytest.approx(tracer.roots[0].duration_s)

    def test_summary_renders_tree(self):
        tracer = Tracer()
        with tracer.span("conv2d", ow=49):
            with tracer.span("segment"):
                pass
        text = tracer.summary()
        assert "conv2d" in text and "segment" in text and "ow=49" in text


class TestDisabledFastPath:
    def test_disabled_span_is_shared_singleton(self):
        assert obs.span("x") is NULL_SPAN
        assert obs.span("y", a=1) is NULL_SPAN
        with obs.span("z") as sp:
            assert sp.set(k=2) is NULL_SPAN
        assert obs.get_tracer().roots == []

    def test_disabled_metrics_record_nothing(self):
        obs.counter_add("c", 3)
        obs.gauge_set("g", 1.0)
        obs.observe("h", 2.0)
        assert obs.get_registry().names() == []

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.enabled()
        with obs.span("live"):
            pass
        obs.disable()
        assert not obs.enabled()
        assert [r.name for r in obs.get_tracer().roots] == ["live"]

    def test_capture_restores_flag_and_resets(self):
        with obs.capture() as tracer:
            assert obs.enabled()
            with obs.span("inside"):
                pass
        assert not obs.enabled()
        assert [r.name for r in tracer.roots] == ["inside"]


class TestOneFlag:
    """``obs.enable`` is the only switch: spans and request traces."""

    def test_disabled_span_ignores_active_trace(self):
        with telemetry.activate(TraceContext(TRACE, SPAN)):
            assert obs.span("x") is NULL_SPAN
        assert obs.get_tracer().roots == []
        assert obs.get_tracer().trace_ids() == []

    def test_enabled_without_context_goes_to_forest_only(self):
        obs.enable()
        with obs.span("plain") as rec:
            pass
        assert obs.get_tracer().roots == [rec]
        assert (rec.trace_id, rec.span_id, rec.parent_id) == (None, None, None)
        assert obs.get_tracer().trace_ids() == []

    def test_capture_clears_the_trace_ring(self):
        obs.enable()
        with telemetry.activate(TraceContext(TRACE, SPAN)), obs.span("before"):
            pass
        assert obs.get_tracer().trace_ids() == [TRACE]
        with obs.capture() as tracer:
            assert tracer.trace_ids() == []


class TestMetrics:
    def test_counter_label_aggregation(self):
        reg = MetricsRegistry()
        c = reg.counter("winograd.segments")
        c.inc(kernel="G8")
        c.inc(2, kernel="G8")
        c.inc(5, kernel="G16")
        c.inc()
        assert c.value(kernel="G8") == 3
        assert c.value(kernel="G16") == 5
        assert c.value() == 1
        assert c.total() == 9

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("c").inc(-1)

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("occ")
        g.set(24, kernel="G8")
        g.set(32, kernel="G8")
        assert g.value(kernel="G8") == 32
        assert g.value(kernel="G16") is None

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("ns")
        for v in (1.0, 3.0, 2.0):
            h.observe(v, device="A")
        s = h.summary(device="A")
        assert s == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_registry_export_and_top_counters(self):
        reg = MetricsRegistry()
        reg.counter("big").inc(100)
        reg.counter("small").inc(1, kind="x")
        d = reg.as_dict()
        assert d["big"]["kind"] == "counter"
        assert d["small"]["values"] == [{"labels": {"kind": "x"}, "value": 1.0}]
        assert reg.top_counters(1) == [("big", "", 100.0)]


@pytest.mark.obs
class TestInstrumentedPipeline:
    def test_conv_span_hierarchy_and_flops(self, rng):
        x = rng.standard_normal((2, 6, 25, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 8)).astype(np.float32)
        with obs.capture() as tracer:
            conv2d_im2col_winograd(x, w)
        names = [rec.name for rec, _ in tracer.iter_spans()]
        # the documented hierarchy: conv -> segments -> transform/accumulate
        assert names[0] == "conv2d"
        assert "segment" in names and "transform.input" in names
        assert "accumulate" in names and "transform.output" in names
        conv = tracer.roots[0]
        assert all(c.name == "segment" for c in conv.children)
        assert conv.attrs["ow"] == 25 and conv.attrs["segments"] == len(conv.children)

        shape = ConvShape(batch=2, ih=6, iw=25, ic=8, oc=4, fh=3, fw=3, ph=1, pw=1)
        reg = obs.get_registry()
        assert reg.counter("conv.flops").total() == standard_flops(shape)
        assert reg.counter("gemm.tail_columns").total() == shape.ow % 6
        assert reg.counter("gather.bytes").total() > 0

    def test_planner_span_attributes(self):
        from repro.core.planner import plan_convolution

        shape = ConvShape(batch=1, ih=8, iw=32, ic=4, oc=4, fh=3, fw=3, ph=1, pw=1, stride=2)
        with obs.capture() as tracer:
            plan = plan_convolution(shape)
        assert plan.algorithm == "gemm"
        sp = tracer.roots[0]
        assert sp.name == "plan"
        assert sp.attrs["algorithm"] == "gemm" and "stride" in sp.attrs["reason"]
        assert obs.get_registry().counter("plan.decisions").value(algorithm="gemm") == 1

    def test_perfmodel_metrics(self):
        from repro.gpusim import RTX3060TI, estimate_conv

        shape = ConvShape(batch=4, ih=16, iw=48, ic=32, oc=32, fh=3, fw=3, ph=1, pw=1)
        with obs.capture():
            est = estimate_conv(shape, RTX3060TI)
        reg = obs.get_registry()
        h = reg.get("model.predicted_ns")
        s = h.summary(algorithm=est.algorithm, device="RTX3060Ti")
        assert s is not None and s["sum"] == pytest.approx(est.time_ms * 1e6)
        assert reg.get("model.occupancy_warps") is not None

    def test_smem_trace_counters(self):
        from repro.core.variants import variant_spec
        from repro.gpusim.trace import simulate_block_iteration

        spec = variant_spec(8, 6, 3)
        with obs.capture():
            result = simulate_block_iteration(spec)
        reg = obs.get_registry()
        assert reg.counter("smem.phases").value(stage="iteration", alpha=8) == result.phases
        assert (
            reg.counter("smem.ideal_phases").value(stage="iteration", alpha=8)
            == result.ideal_phases
        )


class TestMetricsThreadSafety:
    """The serve execute worker, the event loop and concurrent callers
    increment counters and record histogram samples at once; the
    read-modify-write updates must not lose increments."""

    def test_concurrent_counter_increments_are_not_lost(self):
        import threading

        from repro.obs.metrics import Counter

        c = Counter("t.counter")
        threads_n, per_thread = 8, 5000

        def worker():
            for _ in range(per_thread):
                c.inc(1.0, kernel="k")

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(kernel="k") == threads_n * per_thread

    def test_concurrent_histogram_observations_are_not_lost(self):
        import threading

        from repro.obs.metrics import Histogram

        h = Histogram("t.hist")
        threads_n, per_thread = 8, 5000

        def worker():
            for _ in range(per_thread):
                h.observe(2.0)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        s = h.summary()
        assert s is not None
        assert s["count"] == threads_n * per_thread
        assert s["sum"] == 2.0 * threads_n * per_thread
