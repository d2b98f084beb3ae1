"""End-to-end telemetry through the serving stack.

The acceptance criteria under test: a traced ``POST /v1/infer`` yields a
span tree whose trace id links the HTTP request to the batch's runtime
spans (fan-in links, exported as Chrome-trace flows); ``GET /metrics``
serves parseable Prometheus text with sliding-window quantiles; an SLO
fast burn drives ``/healthz`` to 503; and concurrent traced requests each
get their own trace and return the untraced run's bits.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import numpy as np
import pytest

from repro import obs, runtime
from repro.obs import PROMETHEUS_CONTENT_TYPE, telemetry
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.serve import (
    BatchPolicy,
    InferenceService,
    QueueFull,
    SchedulerConfig,
    SLOConfig,
)
from tests.conftest import admitted, infer_all, seeded_inputs
from tests.test_obs_telemetry import parse_exposition

ARCH = "resnet18"
#: The engine rule keeps layer3-4 (128 and 256 channels) on Winograd at this
#: width, so batch traces hold the runtime's Winograd stage spans; at 0.125
#: every conv runs GEMM.
WIDTH = 0.5
IMAGE = 32


@pytest.fixture(autouse=True)
def _fresh_stack():
    runtime.clear_cache()
    runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    yield
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    runtime.clear_cache()


@pytest.fixture
def _telemetry_on():
    obs.enable()
    yield


def _service(**config_kw) -> InferenceService:
    config_kw.setdefault(
        "policy", BatchPolicy(max_batch_size=8, max_queue_delay_ms=2.0)
    )
    config_kw.setdefault("default_timeout_ms", None)
    service = InferenceService(config=SchedulerConfig(**config_kw))
    service.registry.register("net", arch=ARCH, width_mult=WIDTH, image=IMAGE)
    return service


def _x(seed: int = 0) -> np.ndarray:
    return (
        np.random.default_rng(seed)
        .standard_normal((IMAGE, IMAGE, 3))
        .astype(np.float32)
    )


async def _roundtrip(reader, writer, method, path, body=None, headers=None):
    """One keep-alive HTTP exchange; returns (status, headers, payload)."""
    data = b"" if body is None else json.dumps(body).encode()
    head = [f"{method} {path} HTTP/1.1", f"Content-Length: {len(data)}"]
    head.extend(f"{k}: {v}" for k, v in (headers or {}).items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
    await writer.drain()
    status = int((await reader.readline()).decode().split()[1])
    resp_headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        resp_headers[name.strip().lower()] = value.strip()
    raw = await reader.readexactly(int(resp_headers.get("content-length", "0")))
    if resp_headers.get("content-type", "").startswith("application/json"):
        return status, resp_headers, json.loads(raw)
    return status, resp_headers, raw.decode()


CLIENT_TRACE = "ab" * 16
CLIENT_SPAN = "cd" * 8


class TestTraceparentOverHttp:
    def test_traced_request_yields_linked_span_tree(self, _telemetry_on):
        async def scenario():
            service = _service()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                status, headers, body = await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": _x().tolist()},
                    headers={"traceparent": f"00-{CLIENT_TRACE}-{CLIENT_SPAN}-01"},
                )
                writer.close()
            return status, headers, body

        status, headers, body = asyncio.run(scenario())
        assert status == 200

        # The client's trace continues: same trace id, fresh span id.
        assert body["trace_id"] == CLIENT_TRACE
        version, trace_id, span_id, flags = headers["traceparent"].split("-")
        assert (version, trace_id, flags) == ("00", CLIENT_TRACE, "01")
        assert span_id != CLIENT_SPAN

        # Request span tree: serve.request root carrying the server span id,
        # with the queued -> batched lifecycle below it.
        tracer = obs.get_tracer()
        roots = telemetry.tree(CLIENT_TRACE)
        assert [r["name"] for r in roots] == ["serve.request"]
        root = roots[0]
        assert root["span_id"] == span_id
        children = [c["name"] for c in root["children"]]
        assert children == ["serve.admitted", "serve.queued", "serve.batched", "serve.respond"]
        batched = root["children"][2]
        assert batched["attrs"]["batch_id"] >= 1

        # Fan-in: some batch trace links back to this request's server span
        # and carries the runtime's transform/gemm spans.
        batch_traces = [
            tid for tid in tracer.trace_ids()
            if any(
                s.name == "serve.batch" and (CLIENT_TRACE, span_id) in s.links
                for s in tracer.spans_of(tid)
            )
        ]
        assert len(batch_traces) == 1
        batch_spans = {s.name for s in tracer.spans_of(batch_traces[0])}
        assert "conv2d" in batch_spans
        assert "segment" in batch_spans

        # The Chrome export draws that link as a flow (s/f pair) between the
        # request's named row and the batch's executor row.
        doc = obs.chrome_trace()
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "link"]
        assert {e["ph"] for e in flows} == {"s", "f"}
        rows = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert f"request {CLIENT_TRACE[:8]}" in rows
        assert any(r.startswith("repro-serve") for r in rows)

    def test_malformed_traceparent_starts_fresh_trace(self, _telemetry_on):
        async def scenario():
            service = _service()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                status, headers, body = await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": _x().tolist()},
                    headers={"traceparent": "not-a-w3c-header"},
                )
                writer.close()
            return status, headers, body

        status, headers, body = asyncio.run(scenario())
        assert status == 200
        trace_id = body["trace_id"]
        assert len(trace_id) == 32 and trace_id != CLIENT_TRACE
        assert headers["traceparent"].split("-")[1] == trace_id

    def test_error_response_still_carries_traceparent(self, _telemetry_on):
        async def scenario():
            service = _service()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                status, headers, body = await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "ghost", "inputs": _x().tolist()},
                    headers={"traceparent": f"00-{CLIENT_TRACE}-{CLIENT_SPAN}-01"},
                )
                writer.close()
            return status, headers, body

        status, headers, body = asyncio.run(scenario())
        assert status == 404 and body["kind"] == "ModelNotFound"
        assert body["trace_id"] == CLIENT_TRACE
        assert headers["traceparent"].split("-")[1] == CLIENT_TRACE

    def test_telemetry_off_means_no_trace_surface(self):
        async def scenario():
            service = _service()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                status, headers, body = await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": _x().tolist()},
                    headers={"traceparent": f"00-{CLIENT_TRACE}-{CLIENT_SPAN}-01"},
                )
                writer.close()
            return status, headers, body

        status, headers, body = asyncio.run(scenario())
        assert status == 200
        assert "traceparent" not in headers and "trace_id" not in body
        assert obs.get_tracer().trace_ids() == []


#: The stage spans every Winograd segment of the batch's forward opens.
STAGES = (
    "transform.filter", "gather", "transform.input", "accumulate", "transform.output",
)

#: Golden Chrome-trace layout of two coalesced traced requests on resnet18
#: (w=0.5, 32x32): row name -> span-name counts.  Request
#: rows are named by trace (``T0``/``T1`` after id normalisation).  The 14
#: unit-stride convs run in the runtime (``conv2d``): the engine rule runs
#: the 6 of layer3-4 on Winograd (two segments each at 8x8, one at 4x4, each
#: with its stage spans) and the other 8 as one GEMM segment each; the 6
#: strided convs open no runtime spans.
GOLDEN_ROWS = {
    "MainThread": {},
    "repro-serve_0": {
        "serve.batch": 1,
        "serve.request": 2,
        "serve.model": 1,
        "layer.conv2d": 20,
        "conv2d": 14,
        "segment": 17,
        **dict.fromkeys(STAGES, 9),
    },
    **{
        f"request T{i}": dict.fromkeys(
            ("serve.request", "serve.admitted", "serve.queued", "serve.batched",
             "serve.respond"),
            1,
        )
        for i in range(2)
    },
}


class TestGoldenExport:
    """Golden export: one store renders request rows, runtime rows
    and the fan-in between them; request trees and batch traces read back."""

    TRACES = ("1" * 32, "2" * 32)

    def _run(self):
        async def scenario():
            # Size-triggered flush: the two requests always share a batch.
            service = _service(
                policy=BatchPolicy(max_batch_size=2, max_queue_delay_ms=10_000.0)
            )
            obs.reset()  # drop registration warmup; trace the requests only
            obs.enable()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)

                async def one(i):
                    reader, writer = await asyncio.open_connection(host, port)
                    out = await _roundtrip(
                        reader, writer, "POST", "/v1/infer",
                        {"model": "net", "inputs": _x(i).tolist()},
                        headers={"traceparent": f"00-{self.TRACES[i]}-{CLIENT_SPAN}-01"},
                    )
                    writer.close()
                    return out

                return await asyncio.gather(one(0), one(1))

        return asyncio.run(scenario())

    def test_export_tree_and_batch_trace(self):
        responses = self._run()
        assert [status for status, _, _ in responses] == [200, 200]
        server_spans = [h["traceparent"].split("-")[2] for _, h, _ in responses]
        tracer = obs.get_tracer()
        normal = {t[:8]: f"T{i}" for i, t in enumerate(self.TRACES)}

        # Chrome trace: named rows, one X event per span, one s/f per link.
        events = obs.chrome_trace()["traceEvents"]
        rows = {
            e["tid"]: e["args"]["name"] for e in events if e.get("name") == "thread_name"
        }
        rows = {
            tid: (f"request {normal[n[8:]]}" if n.startswith("request ") else n)
            for tid, n in rows.items()
        }
        slices = [e for e in events if e.get("ph") == "X"]
        by_row = {name: Counter() for name in rows.values()}
        for e in slices:
            by_row[rows[e["tid"]]][e["name"]] += 1
        assert {row: dict(c) for row, c in by_row.items()} == GOLDEN_ROWS
        forest = sum(1 for _ in tracer.iter_spans())
        assert len(slices) == forest + 2 * 5  # + the after-the-fact spans
        flows = sorted(
            (e["ph"], rows[e["tid"]], e["id"]) for e in events if e.get("cat") == "link"
        )
        ids = sorted(e["id"] for e in events if e.get("ph") == "s")
        assert [(ph, row) for ph, row, _ in flows] == [
            ("f", "repro-serve_0"), ("f", "repro-serve_0"),
            ("s", "request T0"), ("s", "request T1"),
        ]
        assert sorted(i for ph, _, i in flows if ph == "f") == ids
        (batch_slice,) = [e for e in slices if e["name"] == "serve.batch"]
        assert {e["ts"] for e in events if e.get("ph") == "f"} == {batch_slice["ts"]}

        # Request trees: serve.request -> the scheduler's lifecycle spans,
        # both batched by one batch whose span sits inside ``batched``.
        (bspan,) = [r for r in tracer.roots if r.name == "serve.batch"]
        for trace_id, server_span in zip(self.TRACES, server_spans, strict=True):
            (root,) = telemetry.tree(trace_id)
            assert (root["name"], root["span_id"]) == ("serve.request", server_span)
            assert [c["name"] for c in root["children"]] == [
                "serve.admitted", "serve.queued", "serve.batched", "serve.respond",
            ]
            batched = root["children"][2]
            assert batched["attrs"]["batch_id"] == bspan.attrs["batch_id"]
            end_s = batched["start_s"] + batched["duration_ms"] / 1e3
            assert batched["start_s"] <= bspan.start_s <= bspan.end_s <= end_s
            assert (trace_id, server_span) in bspan.links

        # The batch trace holds the whole forward: conv2d, segment and the
        # stage spans, every one parented inside the batch trace.
        batch_spans = tracer.spans_of(bspan.trace_id)
        assert batch_spans[0] is bspan
        names = {s.name for s in batch_spans}
        assert {"serve.model", "conv2d", "segment", *STAGES} <= names
        ids_in_trace = {s.span_id for s in batch_spans}
        assert all(s.parent_id in ids_in_trace for s in batch_spans[1:])
        assert len(batch_spans) == forest


class TestMetricsEndpoint:
    def test_scrape_parses_with_windowed_quantiles(self, _telemetry_on):
        async def scenario():
            service = _service()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                for seed in range(3):
                    await _roundtrip(
                        reader, writer, "POST", "/v1/infer",
                        {"model": "net", "inputs": _x(seed).tolist()},
                    )
                first = await _roundtrip(reader, writer, "GET", "/metrics")
                await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": _x(9).tolist()},
                )
                second = await _roundtrip(reader, writer, "GET", "/metrics")
                writer.close()
            return first, second

        (s1, h1, text1), (s2, _h2, text2) = asyncio.run(scenario())
        assert s1 == s2 == 200
        assert h1["content-type"] == PROMETHEUS_CONTENT_TYPE

        doc1, doc2 = parse_exposition(text1), parse_exposition(text2)
        key = (("model", "net"),)
        # Counters are monotone across scrapes.
        assert doc1["serve_requests_total"][key] == 3.0
        assert doc2["serve_requests_total"][key] == 4.0
        for name, kind in doc1["__types__"].items():
            if kind == "counter":
                for labels, value in doc1[name].items():
                    assert doc2[name][labels] >= value
        # Cumulative histogram family is consistent...
        buckets = {dict(k)["le"]: v for k, v in doc2["serve_latency_window_ms_bucket"].items()}
        assert buckets["+Inf"] == doc2["serve_latency_window_ms_count"][key] == 4.0
        # ... and the windowed quantile gauges answer "p99 over the last
        # minute", which the cumulative family cannot.
        q = {
            dict(k)["quantile"]: v
            for k, v in doc2["serve_latency_window_ms_window"].items()
        }
        assert 0.0 < q["0.5"] <= q["0.9"] <= q["0.99"]
        assert doc2["serve_latency_window_ms_window_count"][key] == 4.0

    def test_scrape_works_with_telemetry_off(self):
        async def scenario():
            service = _service()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                out = await _roundtrip(reader, writer, "GET", "/metrics")
                writer.close()
            return out

        status, headers, text = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        parse_exposition(text)  # must stay parseable (possibly empty)


class TestHealthzSLO:
    def test_healthy_slo_reports_200_with_status(self):
        async def scenario():
            service = _service(slo=SLOConfig(latency_target_ms=60_000.0))
            async with service:
                await service.infer("net", _x())
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                out = await _roundtrip(reader, writer, "GET", "/healthz")
                writer.close()
            return out

        status, _headers, body = asyncio.run(scenario())
        assert status == 200
        assert body["status"] == "ok"
        assert body["slo"]["good"] >= 1 and body["slo"]["fast_burn"] is False

    def test_fast_burn_degrades_healthz_to_503(self):
        async def scenario():
            # An impossible latency target: every completed request is a bad
            # event, burning at 100x budget in both windows.
            service = _service(slo=SLOConfig(latency_target_ms=0.001))
            async with service:
                for seed in range(4):
                    await service.infer("net", _x(seed))
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                health = await _roundtrip(reader, writer, "GET", "/healthz")
                stats = await _roundtrip(reader, writer, "GET", "/v1/stats")
                writer.close()
            return health, stats

        (status, _headers, body), (_s, _h, stats) = asyncio.run(scenario())
        assert status == 503
        assert body["status"] == "degraded"
        assert body["slo"]["fast_burn"] is True
        assert body["slo"]["bad"] >= 4 and body["slo"]["budget_remaining"] == 0.0
        assert stats["slo"]["fast_burn"] is True

    def test_healthz_without_slo_stays_plain(self):
        async def scenario():
            service = _service()
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                out = await _roundtrip(reader, writer, "GET", "/healthz")
                writer.close()
            return out

        status, _headers, body = asyncio.run(scenario())
        assert (status, body) == (200, {"status": "ok"})

    def test_rejection_burns_error_budget(self):
        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=64, max_queue_delay_ms=10_000.0),
                max_queue_depth=1,
                slo=SLOConfig(latency_target_ms=60_000.0),
            )
            async with service:
                queued = admitted(service, 1)
                blocker = asyncio.ensure_future(service.infer("net", _x()))
                await queued.wait()  # the blocker is in the queue
                with pytest.raises(QueueFull):
                    await service.infer("net", _x(1))
                status = service.scheduler.slo_status()
                # Unblock teardown: drain executes the queued request.
                service.scheduler._batcher.policy.max_queue_delay_ms = 0.0
                result = await blocker
            return status, result

        status, result = asyncio.run(scenario())
        assert status.bad >= 1  # the 429 spent budget
        assert result.shape == (10,)

    def test_slo_gauges_published_on_stop(self, _telemetry_on):
        async def scenario():
            service = _service(slo=SLOConfig(latency_target_ms=60_000.0))
            async with service:
                await service.infer("net", _x())
            return obs.get_registry().get("serve.slo.good")

        gauge = asyncio.run(scenario())
        assert gauge is not None and gauge.value() == 1.0


class TestLoadgenAttribution:
    """Queue/execute attribution of concurrent client load: each traced
    request's span tree splits its latency into ``serve.queued`` and
    ``serve.batched`` time."""

    def test_split_reported_when_traced(self, _telemetry_on):
        """Concurrent requests under the full telemetry stack (spans,
        windowed histograms, SLO tracking) get one trace each carrying a
        queue/execute split, order the windowed quantiles and return the
        untraced run's bits."""

        async def scenario(slo):
            service = _service(slo=slo)
            xs = seeded_inputs(service.registry.get("net"), 12)
            async with service:
                return await infer_all(service, "net", xs, concurrency=4)

        traced = asyncio.run(
            scenario(SLOConfig(latency_target_ms=10_000.0, error_rate_target=0.01))
        )
        tracer = obs.get_tracer()
        trace_ids = tracer.trace_ids()
        # Each request trace holds one scheduler ``serve.respond`` span.
        responds = Counter(
            tid for tid in trace_ids for s in tracer.spans_of(tid) if s.name == "serve.respond"
        )
        assert len(responds) == 12 and set(responds.values()) == {1}
        queued_ms, execute_ms = [], []
        for tid in responds:
            by_name = {s.name: s for s in tracer.spans_of(tid)}
            queued_ms.append(by_name["serve.queued"].duration_s * 1e3)
            execute_ms.append(by_name["serve.batched"].duration_s * 1e3)
        assert min(queued_ms) >= 0.0
        assert float(np.median(execute_ms)) > 0.0
        # Compiled Winograd executables ran under the tracer.
        assert obs.get_registry().get("winograd.segments").total() > 0
        window = obs.get_registry().get("serve.latency.window_ms")
        p50 = window.quantile(0.50, model="net")
        assert 0.0 < p50 <= window.quantile(0.99, model="net")
        obs.disable()
        untraced = asyncio.run(scenario(None))
        assert tracer.trace_ids() == trace_ids
        assert len(traced) == len(untraced) == 12
        for y, ref in zip(traced, untraced):
            assert isinstance(y, np.ndarray)
            np.testing.assert_array_equal(y, ref)

    def test_no_split_when_untraced(self):
        """With telemetry off, served requests record no trace, hence no
        queue/execute split."""

        async def scenario():
            service = _service()
            xs = seeded_inputs(service.registry.get("net"), 4)
            async with service:
                return await infer_all(service, "net", xs, concurrency=2)

        outputs = asyncio.run(scenario())
        assert len(outputs) == 4
        assert all(isinstance(y, np.ndarray) for y in outputs)
        assert obs.get_tracer().trace_ids() == []
