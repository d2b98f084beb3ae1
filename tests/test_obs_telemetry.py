"""Tests for request-scoped telemetry: W3C trace contexts, traced spans in
the tracer's per-trace ring and their Chrome-trace export, sliding-window histograms, the
Prometheus text exposition, and SLO burn-rate tracking.

The exposition tests use a minimal text-format parser (below) and assert
the three properties a scraper depends on: counters never decrease across
scrapes, histogram bucket counts are cumulative and consistent with
``_count``, and label values survive escaping.
"""

from __future__ import annotations

import re
import threading
import time

import pytest

from repro import obs
from repro.obs import telemetry
from repro.obs.chrometrace import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexport import escape_label_value, prom_name, render_prometheus
from repro.obs.slo import SLOConfig, SLOTracker, evaluate_sample
from repro.obs.slo import main as slo_main
from repro.obs.telemetry import TraceContext, parse_traceparent, start_trace
from repro.obs.tracer import NULL_SPAN, SpanRecord, Tracer

TRACE = "ab" * 16
SPAN = "cd" * 8


@pytest.fixture(autouse=True)
def _fresh_tracer():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# --------------------------------------------------------------------------
# W3C traceparent
# --------------------------------------------------------------------------


class TestTraceparent:
    def test_parse_valid(self):
        ctx = parse_traceparent(f"00-{TRACE}-{SPAN}-01")
        assert ctx == TraceContext(TRACE, SPAN, True)

    def test_parse_unsampled_flag(self):
        ctx = parse_traceparent(f"00-{TRACE}-{SPAN}-00")
        assert ctx is not None and ctx.sampled is False

    def test_parse_normalises_case_and_whitespace(self):
        ctx = parse_traceparent(f"  00-{TRACE.upper()}-{SPAN.upper()}-01\t")
        assert ctx is not None and ctx.trace_id == TRACE

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            f"00-{TRACE}-{SPAN}",  # missing flags
            f"00-{TRACE[:-2]}-{SPAN}-01",  # short trace id
            f"00-{TRACE}-{SPAN}xx-01",  # long span id
            f"00-{'g' * 32}-{SPAN}-01",  # non-hex
            f"00-{'0' * 32}-{SPAN}-01",  # all-zero trace id
            f"00-{TRACE}-{'0' * 16}-01",  # all-zero span id
            f"ff-{TRACE}-{SPAN}-01",  # version ff is forbidden
        ],
    )
    def test_parse_drops_malformed(self, header):
        assert parse_traceparent(header) is None

    def test_roundtrip_and_child(self):
        ctx = TraceContext(TRACE, SPAN)
        assert parse_traceparent(ctx.traceparent()) == ctx
        child = ctx.child()
        assert child.trace_id == TRACE and child.span_id != SPAN

    def test_start_trace_continues_or_mints(self):
        cont = start_trace(f"00-{TRACE}-{SPAN}-01")
        assert cont.trace_id == TRACE and cont.span_id != SPAN
        fresh = start_trace("not-a-traceparent")
        assert len(fresh.trace_id) == 32 and fresh.trace_id != TRACE
        assert len(fresh.span_id) == 16


# --------------------------------------------------------------------------
# Per-trace ring, span trees, recording scopes
# --------------------------------------------------------------------------


def _span(name, trace_id=TRACE, span_id=None, parent=None, t0=0.0, t1=1.0):
    return SpanRecord(
        name=name,
        start_s=t0,
        end_s=t1,
        trace_id=trace_id,
        span_id=span_id or name.ljust(16, "0"),
        parent_id=parent,
    )


class TestTraceStore:
    def test_tree_nests_by_parentage(self):
        tracer = Tracer()
        tracer.record(_span("root", span_id="r" * 16, t0=0.0, t1=4.0))
        tracer.record(_span("childA", span_id="a" * 16, parent="r" * 16, t0=1.0, t1=2.0))
        tracer.record(_span("childB", span_id="b" * 16, parent="r" * 16, t0=2.0, t1=3.0))
        tracer.record(_span("grand", span_id="g" * 16, parent="a" * 16, t0=1.2, t1=1.5))
        roots = telemetry.tree(TRACE, tracer)
        assert [r["name"] for r in roots] == ["root"]
        kids = roots[0]["children"]
        assert [k["name"] for k in kids] == ["childA", "childB"]
        assert [g["name"] for g in kids[0]["children"]] == ["grand"]

    def test_orphan_parent_becomes_root(self):
        tracer = Tracer()
        tracer.record(_span("orphan", parent="f" * 16))
        roots = telemetry.tree(TRACE, tracer)
        assert [r["name"] for r in roots] == ["orphan"]

    def test_bounded_by_traces_not_spans(self):
        tracer = Tracer()
        tracer.max_traces = 2
        for i in range(4):
            tid = f"{i:032x}"
            tracer.record(_span("s", trace_id=tid, span_id=f"{i:016x}"))
        assert tracer.trace_ids() == [f"{2:032x}", f"{3:032x}"]

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            Tracer().set_root_limit(0)

    def test_untraced_record_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record(SpanRecord("x", 0.0, 1.0))


class TestRecordingScopes:
    def test_noop_when_disabled_or_contextless(self):
        assert obs.span("x") is NULL_SPAN  # disabled
        obs.enable()
        with obs.span("x") as rec:
            assert rec.trace_id is None  # no active ctx: forest only
        with telemetry.activate(TraceContext(TRACE, SPAN, sampled=False)):
            with obs.span("x") as rec:
                assert rec.trace_id is None  # unsampled: forest only
        assert obs.get_tracer().trace_ids() == []

    def test_span_records_explicit_parent_chain(self):
        obs.enable()
        ctx = TraceContext(TRACE, SPAN)
        with telemetry.activate(ctx):
            with obs.span("outer", k=1) as outer:
                assert telemetry.current().span_id == outer.span_id
                with obs.span("inner") as inner:
                    pass
        spans = {s.name: s for s in obs.get_tracer().spans_of(TRACE)}
        assert spans["outer"] is outer and spans["inner"] is inner
        assert outer.parent_id == SPAN
        assert inner.parent_id == outer.span_id
        assert outer.attrs == {"k": 1}
        assert outer.children == [inner]  # also nested in the forest
        assert outer.end_s >= outer.start_s
        assert telemetry.current() is None  # context restored

    def test_record_span_root_is_context_position(self):
        obs.enable()
        ctx = TraceContext(TRACE, SPAN)
        root = telemetry.record_span("serve.request", ctx, 1.0, 2.0, root=True, rid=7)
        child = telemetry.record_span("serve.queued", ctx, 1.0, 1.5)
        assert root.span_id == SPAN and root.parent_id is None
        assert child.parent_id == SPAN and child.span_id != SPAN
        assert root.duration_s == pytest.approx(1.0)
        # After-the-fact spans live in the ring, on no thread's stack.
        assert root.tid == 0 and obs.get_tracer().roots == []

    def test_record_span_lands_on_the_span_clock(self):
        obs.enable()
        ctx = TraceContext(TRACE, SPAN)
        with obs.span("live") as live:
            with obs.span("before"):  # margin against the offset's read skew
                pass
            now = time.monotonic()
            with obs.span("after"):
                pass
        rec = telemetry.record_span("serve.respond", ctx, now, now)
        assert live.start_s <= rec.start_s <= live.end_s

    def test_record_span_noop_without_context(self):
        assert telemetry.record_span("x", TraceContext(TRACE, SPAN), 0.0, 1.0) is None
        obs.enable()
        assert telemetry.record_span("x", None, 0.0, 1.0) is None
        assert obs.get_tracer().trace_ids() == []


class TestQueueExecuteSplit:
    def test_sums_scheduler_spans_per_trace(self):
        tracer = Tracer()
        tracer.record(_span("serve.request", t0=0.0, t1=1.0))
        tracer.record(_span("serve.queued", span_id="q" * 16, t0=0.0, t1=0.25))
        tracer.record(_span("serve.batched", span_id="b" * 16, t0=0.25, t1=1.0))
        other = "e" * 32
        tracer.record(_span("unrelated", trace_id=other, span_id="u" * 16))
        split = telemetry.queue_execute_split([TRACE, other, "f" * 32], tracer)
        assert split["queued_ms"] == [pytest.approx(250.0)]
        assert split["execute_ms"] == [pytest.approx(750.0)]


# --------------------------------------------------------------------------
# Chrome-trace export: request rows, flow events, stable thread tids
# --------------------------------------------------------------------------


class TestStoreChromeExport:
    def _tracer_with_fanin(self):
        """A request span recorded after the fact, a live batch linking it."""
        tracer = Tracer()
        req = "1" * 32
        tracer.record(_span("serve.request", trace_id=req, span_id="a" * 16, t1=2.0))

        def batch():
            batch_ctx = TraceContext("2" * 32, "b" * 16)
            with telemetry.activate(batch_ctx), tracer.span("serve.batch") as bspan:
                bspan.add_link(req, "a" * 16)

        t = threading.Thread(target=batch, name="repro-serve_0")
        t.start()
        t.join()
        return tracer, req

    def test_rows_named_and_stable(self):
        tracer, req = self._tracer_with_fanin()
        doc = chrome_trace(tracer, MetricsRegistry())
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert f"request {req[:8]}" in names.values()
        assert "repro-serve_0" in names.values()
        # Same tracer exports the same layout twice.
        again = chrome_trace(tracer, MetricsRegistry())
        assert doc["traceEvents"] == again["traceEvents"]

    def test_fanin_links_become_flow_events(self):
        tracer, _ = self._tracer_with_fanin()
        events = chrome_trace(tracer, MetricsRegistry())["traceEvents"]
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert finishes[0]["bp"] == "e"
        slice_tids = {
            e["name"]: e["tid"] for e in events if e.get("ph") == "X"
        }
        # The flow starts at the linked request span's row and finishes at
        # the batch span's row.
        assert starts[0]["tid"] == slice_tids["serve.request"]
        assert finishes[0]["tid"] == slice_tids["serve.batch"]

    def test_dangling_link_is_dropped(self):
        tracer = Tracer()
        with tracer.span("serve.batch") as s:
            s.add_link("9" * 32, "9" * 16)
        events = chrome_trace(tracer, MetricsRegistry())["traceEvents"]
        assert not [e for e in events if e.get("ph") in ("s", "f")]

    def test_empty_store_exports_empty(self):
        events = chrome_trace(Tracer(), MetricsRegistry())["traceEvents"]
        assert not [e for e in events if e.get("ph") in ("X", "s", "f")]


class TestTracerChromeStableTids:
    def test_worker_generations_get_distinct_named_rows(self):
        """Same thread name, recycled-or-not idents: distinct stable rows."""
        with obs.capture() as tracer:
            with obs.span("main.work"):
                pass

            def work():
                with obs.span("pool.work"):
                    time.sleep(0.001)

            for _ in range(2):  # two "pool generations", same thread name
                t = threading.Thread(target=work, name="repro-serve_0")
                t.start()
                t.join()
            doc = chrome_trace(tracer)
        meta = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        main_slices = [e for e in slices if e["name"] == "main.work"]
        assert main_slices and all(e["tid"] == 0 for e in main_slices)
        assert meta[0] == threading.main_thread().name
        pool_rows = {e["tid"] for e in slices if e["name"] == "pool.work"}
        assert pool_rows and 0 not in pool_rows
        for tid in pool_rows:
            assert meta[tid] == "repro-serve_0"
        # Every row used by a slice has thread_name + thread_sort_index.
        sort_meta = {
            e["tid"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_sort_index"
        }
        assert {e["tid"] for e in slices} <= set(meta) <= sort_meta | set(meta)


# --------------------------------------------------------------------------
# Windowed histograms
# --------------------------------------------------------------------------


class TestWindowedHistogram:
    def _hist(self, clock, window_s=60.0, slices=6):
        reg = MetricsRegistry()
        h = reg.windowed_histogram("lat.ms", window_s=window_s, slices=slices)
        h._clock = clock  # injected clock: deterministic window rotation
        return reg, h

    def test_quantiles_ordered_and_interpolated(self):
        t = [0.0]
        _, h = self._hist(lambda: t[0])
        for v in (1.0, 2.0, 4.0, 8.0, 100.0):
            h.observe(v)
        p50, p90, p99 = (h.quantile(q) for q in (0.5, 0.9, 0.99))
        assert 0.0 < p50 <= p90 <= p99
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_window_expires_but_cumulative_does_not(self):
        t = [0.0]
        _, h = self._hist(lambda: t[0], window_s=10.0, slices=5)
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.window_summary()["count"] == 3
        t[0] = 100.0  # well past the window
        assert h.window_summary()["count"] == 0
        assert h.quantile(0.5) == 0.0
        # The cumulative (Prometheus) side never forgets.
        assert sum(h.bucket_counts()) == 3

    def test_beyond_largest_edge_reports_alltime_max(self):
        t = [0.0]
        _, h = self._hist(lambda: t[0])
        big = h.bucket_edges[-1] * 3
        h.observe(big)
        assert h.quantile(0.99) == pytest.approx(big)


# --------------------------------------------------------------------------
# Prometheus exposition + minimal parser
# --------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:\\.|[^"\\])*)"')


def parse_exposition(text: str) -> dict[str, dict[tuple, float]]:
    """Minimal 0.0.4 text parser: ``{name: {label items: value}}``.

    Only what the assertions need — sample lines with optional labels —
    but strict: any non-comment line that fails to parse is an error.
    """
    types: dict[str, str] = {}
    out: dict[str, dict[tuple, float]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            fam, kind = rest.rsplit(" ", 1)
            types[fam] = kind
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"unparseable exposition line: {line!r}"
        labels = []
        raw = m.group("labels")
        if raw:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw):
                v = lm.group("v").replace('\\"', '"').replace("\\n", "\n")
                v = v.replace("\\\\", "\\")
                labels.append((lm.group("k"), v))
                consumed = lm.end()
            rest = raw[consumed:].strip(", ")
            assert not rest, f"unparseable labels: {raw!r}"
        value = float(m.group("value").replace("+Inf", "inf").replace("-Inf", "-inf"))
        out.setdefault(m.group("name"), {})[tuple(labels)] = value
    out["__types__"] = types  # type: ignore[assignment]
    return out


class TestPromExposition:
    def test_name_sanitisation(self):
        assert prom_name("serve.latency_ms") == "serve_latency_ms"
        assert prom_name("9lives") == "_9lives"

    def test_counter_monotone_across_scrapes(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests").inc(3, model="a")
        first = parse_exposition(render_prometheus(reg))
        reg.counter("serve.requests").inc(2, model="a")
        reg.counter("serve.requests").inc(1, model="b")
        second = parse_exposition(render_prometheus(reg))
        fam = "serve_requests_total"
        assert second["__types__"][fam] == "counter"
        for key, value in first[fam].items():
            assert second[fam][key] >= value
        assert second[fam][(("model", "a"),)] == 5.0

    def test_windowed_histogram_bucket_sum_consistency(self):
        reg = MetricsRegistry()
        h = reg.windowed_histogram("lat.ms")
        values = [0.3, 1.0, 5.0, 5.0, 40.0, 20000.0]  # last is past the top edge
        for v in values:
            h.observe(v, model="m")
        doc = parse_exposition(render_prometheus(reg))
        buckets = {
            dict(k)["le"]: v for k, v in doc["lat_ms_bucket"].items()
        }
        # Cumulative: non-decreasing in le order, +Inf equals _count.
        ordered = sorted(
            (le for le in buckets if le != "+Inf"), key=float
        )
        counts = [buckets[le] for le in ordered] + [buckets["+Inf"]]
        assert counts == sorted(counts)
        total = doc["lat_ms_count"][(("model", "m"),)]
        assert buckets["+Inf"] == total == len(values)
        assert doc["lat_ms_sum"][(("model", "m"),)] == pytest.approx(sum(values))
        # Every observation is inside some finite bucket except the 9000.
        assert buckets[ordered[-1]] == len(values) - 1
        # Windowed quantiles ride along as a separate gauge family.
        assert doc["__types__"]["lat_ms_window"] == "gauge"
        q = {dict(k)["quantile"]: v for k, v in doc["lat_ms_window"].items()}
        assert set(q) == {"0.5", "0.9", "0.99"}
        assert 0.0 < q["0.5"] <= q["0.9"] <= q["0.99"]

    def test_label_escaping_roundtrip(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        reg = MetricsRegistry()
        hostile = 'mo"del\\one\nline'
        reg.counter("hits").inc(1, model=hostile)
        doc = parse_exposition(render_prometheus(reg))
        assert doc["hits_total"][(("model", hostile),)] == 1.0


# --------------------------------------------------------------------------
# SLO burn rates
# --------------------------------------------------------------------------


def _tracker(**kw):
    t = [0.0]
    cfg = SLOConfig(
        latency_target_ms=100.0,
        error_rate_target=0.01,
        window_s=300.0,
        fast_window_s=30.0,
        **kw,
    )
    return SLOTracker(cfg, clock=lambda: t[0]), t


class TestSLOTracker:
    def test_healthy_traffic_no_burn(self):
        tracker, t = _tracker()
        for _ in range(100):
            t[0] += 0.1
            tracker.record(10.0)
        st = tracker.evaluate()
        assert st.good == 100 and st.bad == 0
        assert st.burn_rate_fast == 0.0 and not st.fast_burn
        assert st.budget_remaining == 1.0

    def test_slow_requests_are_bad_events(self):
        tracker, _ = _tracker()
        assert tracker.record(99.9) is True
        assert tracker.record(100.1) is False
        assert tracker.record(10.0, error=True) is False
        st = tracker.evaluate()
        assert (st.good, st.bad) == (1, 2)

    def test_fast_burn_requires_both_windows(self):
        tracker, t = _tracker()
        # 20% errors at 1% budget = 20x burn in both windows -> fast burn.
        for i in range(100):
            t[0] += 0.1
            tracker.record(10.0, error=(i % 5 == 0))
        st = tracker.evaluate()
        assert st.burn_rate_fast >= 10.0 and st.burn_rate_slow >= 1.0
        assert st.fast_burn

    def test_recovery_clears_fast_window_first(self):
        tracker, t = _tracker()
        for _ in range(50):
            t[0] += 0.1
            tracker.record(10.0, error=True)
        assert tracker.evaluate().fast_burn
        # Healthy traffic for > fast_window_s: the fast window drains while
        # the slow window still remembers the incident.
        for _ in range(100):
            t[0] += 0.5
            tracker.record(10.0)
        st = tracker.evaluate()
        assert not st.fast_burn
        assert st.burn_rate_slow > 1.0  # incident still inside 300s

    def test_events_age_out_of_slow_window(self):
        tracker, t = _tracker()
        tracker.record(10.0, error=True)
        t[0] = 1000.0
        st = tracker.evaluate()
        assert st.total == 0 and st.burn_rate_slow == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(latency_target_ms=0.0)
        with pytest.raises(ValueError):
            SLOConfig(error_rate_target=1.0)
        with pytest.raises(ValueError):
            SLOConfig(window_s=10.0, fast_window_s=30.0)

    def test_gauges_shape(self):
        tracker, _ = _tracker()
        tracker.record(10.0)
        gauges = tracker.gauges()
        assert gauges["serve.slo.good"] == 1.0
        assert set(gauges) == {
            "serve.slo.good",
            "serve.slo.bad",
            "serve.slo.error_rate",
            "serve.slo.burn_rate_fast",
            "serve.slo.burn_rate_slow",
            "serve.slo.fast_burn",
            "serve.slo.budget_remaining",
        }


class TestSLOCli:
    def test_evaluate_sample_burn_math(self):
        cfg = SLOConfig(latency_target_ms=100.0, error_rate_target=0.1)
        st = evaluate_sample([10.0] * 8 + [500.0] * 2, cfg)
        assert (st.good, st.bad) == (8, 2)
        assert st.burn_rate_slow == pytest.approx(2.0)

    def test_cli_within_budget_exit_0(self, tmp_path, capsys):
        sample = tmp_path / "lat.json"
        sample.write_text("[1.0, 2.0, 3.0]")
        assert slo_main([str(sample), "--target-ms", "100"]) == 0
        assert "within budget" in capsys.readouterr().out

    def test_cli_fast_burn_exit_1_and_json(self, tmp_path, capsys):
        import json as _json

        sample = tmp_path / "lat.json"
        sample.write_text(_json.dumps([500.0] * 10))
        assert slo_main([str(sample), "--target-ms", "100", "--json"]) == 1
        doc = _json.loads(capsys.readouterr().out)
        assert doc["fast_burn"] is True and doc["bad"] == 10

    def test_cli_reads_loadgen_document(self, tmp_path):
        import json as _json

        doc = {"batched": {"latencies_ms": [1.0, 2.0], "errors": {"rejected": 0}}}
        sample = tmp_path / "loadgen.json"
        sample.write_text(_json.dumps(doc))
        assert slo_main([str(sample), "--target-ms", "100"]) == 0

    def test_cli_demo_smoke(self, capsys):
        assert slo_main(["--demo"]) == 0
        out = capsys.readouterr().out
        assert "incident" in out and "fast_burn=True" in out
