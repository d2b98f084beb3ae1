"""Tests for the serving control plane: scheduler, HTTP face, concurrent clients.

The robustness contract under test (the module docstrings promise it): a
full queue **rejects** with :class:`QueueFull` instead of hanging or
dropping, deadlines fail loudly with :class:`DeadlineExceeded`, and a
forward that raises **fails** every request of its batch with that
exception (HTTP 500) while the service goes on serving — all observable
through ``serve.*`` counters and the scheduler's stats.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import obs, runtime
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.serve import (
    BadRequest,
    BatchPolicy,
    DeadlineExceeded,
    InferenceService,
    QueueFull,
    SchedulerConfig,
    ServiceStopped,
)
from repro.serve.httpfront import MAX_BODY_BYTES

from .conftest import admitted, infer_all, seeded_inputs

ARCH = "resnet18"
WIDTH = 0.125
IMAGE = 32


@pytest.fixture(autouse=True)
def _fresh_runtime():
    runtime.clear_cache()
    runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    yield
    runtime.clear_cache()
    runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)


def _counter_total(name: str) -> float:
    metric = obs.get_registry().get(name)
    return metric.total() if metric is not None else 0.0


def _service(**config_kw) -> InferenceService:
    service = InferenceService(config=SchedulerConfig(**config_kw))
    service.registry.register("net", arch=ARCH, width_mult=WIDTH, image=IMAGE)
    return service


def _quote_half_the_deadline(service: InferenceService) -> None:
    """Quote a one-row batch at 250 ms, half the 500 ms deadlines below.

    The pressure flush then fires 250 ms before the deadline, so a flush
    loop that wakes late by anything short of that (minus a ~10 ms forward)
    still makes it.  The registration warm-up alone quotes a few ms, so
    timer lateness beyond that expired the request.
    """
    service.registry.get("net").record_batch_ns(1, 250e6)


def _x(seed: int = 0) -> np.ndarray:
    return (
        np.random.default_rng(seed)
        .standard_normal((IMAGE, IMAGE, 3))
        .astype(np.float32)
    )


async def _roundtrip(reader, writer, method, path, body=None):
    if body is None or isinstance(body, bytes):
        data = body or b""
    else:
        data = json.dumps(body).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n\r\n".encode()
        + data
    )
    await writer.drain()
    status_line = (await reader.readline()).decode()
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b""):
            break
        if header.lower().startswith(b"content-length"):
            length = int(header.split(b":")[1])
    payload = json.loads(await reader.readexactly(length))
    return int(status_line.split()[1]), payload


class TestAdmissionControl:
    def test_full_queue_rejects_not_hangs(self):
        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=50.0),
                max_queue_depth=2,
                default_timeout_ms=None,
            )
            with obs.capture():
                async with service:
                    both_admitted = admitted(service, 2)
                    queued = [
                        asyncio.ensure_future(service.infer("net", _x(i)))
                        for i in range(2)
                    ]
                    await both_admitted.wait()  # neither dispatched yet
                    with pytest.raises(QueueFull):
                        await service.infer("net", _x(9))
                    rejected = _counter_total("serve.rejected")
                    # The queued requests still complete normally.
                    outs = await asyncio.gather(*queued)
            return rejected, outs, service.scheduler.stats()

        rejected, outs, stats = asyncio.run(scenario())
        assert rejected == 1
        assert stats.rejected == 1
        assert stats.completed == 2
        assert all(out.shape == (10,) for out in outs)

    def test_submit_after_stop_raises(self):
        async def scenario():
            service = _service()
            async with service:
                pass
            with pytest.raises(ServiceStopped):
                await service.infer("net", _x())

        asyncio.run(scenario())

    def test_stop_without_drain_fails_queued(self):
        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=60_000.0),
                default_timeout_ms=None,
            )
            await service.start()
            queued = admitted(service, 1)
            fut = asyncio.ensure_future(service.infer("net", _x()))
            await queued.wait()
            await service.scheduler.stop(drain=False)
            with pytest.raises(ServiceStopped):
                await fut

        asyncio.run(scenario())

    @pytest.mark.parametrize("drain", [True, False], ids=["drain", "no_drain"])
    def test_stop_during_flush(self, monkeypatch, drain):
        """``stop()`` while a batch's forward is running: the in-flight
        batch still answers, the queued requests are served (drain) or fail
        with ServiceStopped, and no future is left pending."""
        started, gate = threading.Event(), threading.Event()

        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=4, max_queue_delay_ms=60_000.0),
                default_timeout_ms=None,
            )
            entry = service.registry.get("net")
            forward = entry.infer_rows

            def blocked(rows, **kw):
                started.set()
                assert gate.wait(30.0), "forward never released"
                return forward(rows, **kw)

            xs = seeded_inputs(entry, 6)
            async with service:
                monkeypatch.setattr(entry, "infer_rows", blocked)
                loop = asyncio.get_running_loop()
                first = [asyncio.ensure_future(service.infer("net", xs[i])) for i in range(4)]
                assert await loop.run_in_executor(None, started.wait, 30.0)
                queued = admitted(service, 2)
                rest = [asyncio.ensure_future(service.infer("net", xs[i])) for i in (4, 5)]
                await queued.wait()
                stopping = asyncio.ensure_future(service.scheduler.stop(drain=drain))
                # Runs after the stop task's first step: the scheduler is
                # already stopping while the forward is still blocked.
                loop.call_soon(gate.set)
                await stopping
                results = await asyncio.gather(*first, *rest, return_exceptions=True)
                left = service.scheduler.queue_depth
            return results, left

        results, left = asyncio.run(scenario())
        assert left == 0
        assert all(isinstance(r, np.ndarray) for r in results[:4])
        if drain:
            assert all(isinstance(r, np.ndarray) for r in results[4:])
        else:
            assert all(isinstance(r, ServiceStopped) for r in results[4:])

    def test_single_process_service_stop_is_idempotent(self):
        """Concurrent InferenceService stops during an in-flight flush share
        one teardown, and every admitted request still gets its answer."""

        async def scenario():
            service = _service(policy=BatchPolicy(max_batch_size=4))
            xs = seeded_inputs(service.registry.get("net"), 6)
            async with service:
                all_admitted = admitted(service, 6)
                pending = [asyncio.ensure_future(service.infer("net", x)) for x in xs]
                await all_admitted.wait()
                await asyncio.gather(service.stop(), service.stop(), service.stop())
                results = await asyncio.gather(*pending, return_exceptions=True)
                # drain=True: every admitted request still gets its answer.
                assert all(isinstance(r, np.ndarray) for r in results)
            # __aexit__ was stop number four; a fifth is still fine.
            await service.stop()

        asyncio.run(scenario())


class TestDeadlines:
    def test_deadline_pressure_rescues_queued_request(self):
        async def scenario():
            # A bucket that will never fill and would only delay-flush after
            # a minute.  The deadline-pressure flush dispatches at
            # deadline − quote, so the deadline is *met* rather than
            # enforced post-mortem.
            service = _service(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=60_000.0),
                default_timeout_ms=None,
            )
            _quote_half_the_deadline(service)
            async with service:
                t0 = asyncio.get_running_loop().time()
                y = await service.infer("net", _x(), timeout_ms=500.0)
                waited = asyncio.get_running_loop().time() - t0
            return y, waited, service.scheduler.stats()

        y, waited, stats = asyncio.run(scenario())
        assert y.ndim >= 1
        assert stats.completed == 1 and stats.expired == 0
        assert stats.batch_triggers.get("deadline") == 1
        assert waited < 5.0  # pressure-flushed, not the 60 s delay timer

    def test_hopeless_deadline_expires_in_queue(self):
        async def scenario():
            # A deadline that passes before the flush loop can even wake:
            # no dispatch can save it, so the queue-expiry path must fire.
            service = _service(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=60_000.0),
                default_timeout_ms=None,
            )
            with obs.capture():
                async with service:
                    t0 = asyncio.get_running_loop().time()
                    with pytest.raises(DeadlineExceeded):
                        await service.infer("net", _x(), timeout_ms=0.001)
                    waited = asyncio.get_running_loop().time() - t0
                expired = _counter_total("serve.expired")
            return waited, expired, service.scheduler.stats()

        waited, expired, stats = asyncio.run(scenario())
        assert stats.expired == 1 and expired == 1
        assert waited < 5.0  # enforced by the deadline timer, not the flush

    def test_default_timeout_applies(self):
        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=60_000.0),
                default_timeout_ms=500.0,
            )
            _quote_half_the_deadline(service)
            async with service:
                await service.infer("net", _x())  # timeout_ms="default"
            return service.scheduler.stats()

        stats = asyncio.run(scenario())
        # The default deadline is what armed the pressure flush: without it
        # this bucket would have waited out the 60 s delay timer.
        assert stats.batch_triggers.get("deadline") == 1
        assert stats.expired == 0 and stats.completed == 1


class TestFailurePath:
    def test_failed_batch_fails_each_request(self, monkeypatch):
        """A forward that raises after warm-up fails every request of its
        batch with that exception and leaves no future pending; the stats
        and the ``serve.failed`` counter count the requests as failed,
        ``POST /v1/infer`` answers 500 with a JSON body, and the next
        request succeeds once the forward works again."""

        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=4, max_queue_delay_ms=2.0),
                default_timeout_ms=30_000.0,
            )
            entry = service.registry.get("net")
            xs = seeded_inputs(entry, 4)
            want = entry.infer_rows(xs[0][None])[0]

            def boom(rows, **kw):
                raise RuntimeError("injected forward failure")

            async with service:
                monkeypatch.setattr(entry, "infer_rows", boom)
                with obs.capture():
                    results = await asyncio.wait_for(
                        infer_all(service, "net", xs, concurrency=4), timeout=30.0
                    )
                    counted = obs.get_registry().counter("serve.failed").value(model="net")
                failed = service.scheduler.stats()
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                http = await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": xs[0].tolist()},
                )
                writer.close()
                monkeypatch.undo()
                y = await service.infer("net", xs[0])
                left = service.scheduler.queue_depth
            return results, failed, counted, http, y, want, left

        results, failed, counted, (status, body), y, want, left = asyncio.run(scenario())
        assert all(
            isinstance(r, RuntimeError) and str(r) == "injected forward failure"
            for r in results
        )
        assert failed.failed == 4 and failed.completed == 0
        assert counted == 4
        assert status == 500
        assert body == {"error": "injected forward failure", "kind": "RuntimeError"}
        assert left == 0
        np.testing.assert_array_equal(y, want)


class TestHttpEndpoint:
    def test_routes_and_error_mapping(self):
        async def scenario():
            service = _service(default_timeout_ms=30_000.0)
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                rt = _roundtrip

                status, body = await rt(reader, writer, "GET", "/healthz")
                assert (status, body) == (200, {"status": "ok"})

                status, body = await rt(reader, writer, "GET", "/v1/models")
                assert status == 200 and body["models"][0]["name"] == "net"

                x = np.zeros((IMAGE, IMAGE, 3), np.float32).tolist()
                status, body = await rt(
                    reader, writer, "POST", "/v1/infer", {"model": "net", "inputs": x}
                )
                assert status == 200 and len(body["outputs"]) == 10
                assert body["latency_ms"] > 0

                status, body = await rt(
                    reader, writer, "POST", "/v1/infer", {"model": "ghost", "inputs": x}
                )
                assert status == 404 and body["kind"] == "ModelNotFound"

                status, body = await rt(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": [[1, 2], [3]]},
                )
                assert status == 400 and body["kind"] == "BadRequest"

                status, _ = await rt(reader, writer, "POST", "/v1/infer", {})
                assert status == 400

                status, _ = await rt(reader, writer, "GET", "/nope")
                assert status == 404

                status, body = await rt(reader, writer, "GET", "/v1/stats")
                assert status == 200 and body["scheduler"]["completed"] == 1

                writer.close()

        asyncio.run(scenario())

    def test_http_infer_matches_in_process(self, rng):
        async def scenario():
            service = _service(default_timeout_ms=30_000.0)
            x = rng.standard_normal((IMAGE, IMAGE, 3)).astype(np.float32)
            async with service:
                want = await service.infer("net", x)
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                status, body = await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": x.tolist()},
                )
                writer.close()
            assert status == 200
            # tolist() round-trips float32 exactly via decimal repr.
            np.testing.assert_array_equal(
                np.asarray(body["outputs"], np.float32), want
            )

        asyncio.run(scenario())

    def _raw_exchange(self, data: bytes) -> bytes:
        """Send ``data`` on one connection and read until the server closes."""

        async def scenario():
            service = _service(default_timeout_ms=30_000.0)
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(data)
                await writer.drain()
                reply = await asyncio.wait_for(reader.read(), timeout=30.0)
                writer.close()
            return reply

        return asyncio.run(scenario())

    @pytest.mark.parametrize("length", ["-5", "abc", "+5", ""])
    def test_malformed_content_length_is_400_and_closes(self, length):
        reply = self._raw_exchange(
            f"POST /v1/infer HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert b"Content-Length" in json.loads(body)["error"].encode()

    @pytest.mark.parametrize(
        "timeout_ms,status,kind",
        [
            ("abc", 400, BadRequest),
            ([1], 400, BadRequest),
            (float("nan"), 400, BadRequest),
            (True, 400, BadRequest),
            (0, 504, DeadlineExceeded),
            (-5.0, 504, DeadlineExceeded),
        ],
        ids=["string", "list", "nan", "bool", "zero", "negative"],
    )
    def test_timeout_ms_is_validated(self, timeout_ms, status, kind):
        """Only null or a finite number is a timeout; one that has already
        passed is a deadline miss, not a bad request, and nothing is left
        pending either way."""

        async def scenario():
            service = _service(default_timeout_ms=30_000.0)
            x = _x()
            async with service:
                with pytest.raises(kind):
                    await service.infer("net", x, timeout_ms=timeout_ms)
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                got = await _roundtrip(
                    reader, writer, "POST", "/v1/infer",
                    {"model": "net", "inputs": x.tolist(), "timeout_ms": timeout_ms},
                )
                writer.close()
                left = service.scheduler.queue_depth
            return got, left, service.scheduler.stats()

        (got_status, body), left, stats = asyncio.run(scenario())
        assert (got_status, body["kind"]) == (status, kind.__name__)
        assert left == 0
        assert stats.completed == stats.failed == 0
        assert stats.submitted == stats.expired == (2 if kind is DeadlineExceeded else 0)

    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            json.dumps({"model": "net", "inputs": [["a", "b"], ["c", "d"]]}).encode(),
            json.dumps(
                {"model": "net", "inputs": np.zeros((IMAGE + 1, IMAGE, 3)).tolist()}
            ).encode(),
            json.dumps(
                {"model": "net", "inputs": np.zeros((IMAGE, IMAGE, 4)).tolist()}
            ).encode(),
        ],
        ids=["not_json", "string_inputs", "wrong_spatial_size", "wrong_channels"],
    )
    def test_malformed_infer_body_is_400(self, body):
        """A body that cannot become a served input is a BadRequest that
        admits nothing."""

        async def scenario():
            service = _service(default_timeout_ms=30_000.0)
            async with service:
                host, port = await service.serve_http("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                got = await _roundtrip(reader, writer, "POST", "/v1/infer", body)
                writer.close()
                left = service.scheduler.queue_depth
            return got, left, service.scheduler.stats()

        (status, reply), left, stats = asyncio.run(scenario())
        assert (status, reply["kind"]) == (400, "BadRequest")
        assert left == 0
        assert stats.submitted == stats.completed == stats.failed == 0

    def test_oversized_content_length_is_413_and_closes(self):
        # The bytes after the head would have been parsed as a second
        # request had the server cut the body to the cap and kept going.
        smuggled = b"GET /healthz HTTP/1.1\r\n\r\n"
        reply = self._raw_exchange(
            f"POST /v1/infer HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}"
            "\r\n\r\n".encode() + smuggled
        )
        assert reply.startswith(b"HTTP/1.1 413 Content Too Large\r\n")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1


class TestConcurrentClients:
    def test_batched_outputs_match_batch_one(self):
        """48 requests from 16 concurrent clients coalesce into batches of
        at most 8 rows, and every response equals a batch-1 forward of the
        same payload bit for bit."""

        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=2.0),
                default_timeout_ms=30_000.0,
            )
            xs = seeded_inputs(service.registry.get("net"), 48)
            async with service:
                got = await infer_all(service, "net", xs, concurrency=16)
            return service, xs, got

        service, xs, got = asyncio.run(scenario())
        stats = service.scheduler.stats()
        assert stats.completed == 48 and stats.failed == stats.expired == 0
        # Batch histogram counts rows, one per request here.
        assert sum(s * n for s, n in stats.batch_sizes.items()) == 48
        assert max(stats.batch_sizes) <= 8
        entry = service.registry.get("net")
        for x, y in zip(xs, got):
            np.testing.assert_array_equal(y, entry.infer_rows(x[None])[0])

    def test_hopeless_timeout_fails_every_request(self):
        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=8, max_queue_delay_ms=60_000.0),
                default_timeout_ms=None,
            )
            xs = seeded_inputs(service.registry.get("net"), 4)
            async with service:
                # Hopeless deadlines: already past before the flush loop can
                # wake, so not even the deadline-pressure flush can rescue
                # them.
                got = await infer_all(service, "net", xs, concurrency=4, timeout_ms=0.001)
            return got, service.scheduler.stats()

        got, stats = asyncio.run(scenario())
        assert all(isinstance(r, DeadlineExceeded) for r in got)
        assert stats.expired == 4 and stats.completed == 0


class TestServiceStats:
    def test_stats_shape(self):
        async def scenario():
            service = _service(default_timeout_ms=30_000.0)
            async with service:
                await service.infer("net", _x())
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["queue_depth"] == 0
        assert stats["scheduler"]["completed"] == 1
        assert stats["scheduler"]["mean_batch_size"] >= 1.0
        assert stats["models"][0]["name"] == "net"
        assert stats["uptime_s"] > 0
