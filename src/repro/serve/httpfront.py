"""JSON-over-HTTP front end for the serving tier.

One dependency-free HTTP/1.1 server (``asyncio.start_server``) behind
:class:`~repro.serve.service.InferenceService`: keep-alive handling,
header parsing, error statuses and body limits live here, apart from the
routing.

The server owns connections only; routing is delegated to an async
``dispatch(method, path, headers, body)`` callable returning
``(status, payload, extra_headers)`` — a ``dict`` payload is sent as
JSON, a ``str`` verbatim with the content type named in the extra headers
(the Prometheus exposition route).

:func:`handle_infer_request` is the ``POST /v1/infer`` body: traceparent
continuation, payload validation and the typed-error → HTTP status
mapping around an ``infer(model, x, timeout_ms=..., trace=...)``
coroutine.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Awaitable, Callable, Protocol

import numpy as np

from ..obs import enabled, telemetry
from ..obs.telemetry import TraceContext
from .errors import BadRequest, ServeError
from .scheduler import check_timeout_ms

__all__ = ["JsonHttpServer", "handle_infer_request", "REASONS"]

#: Reason phrases for the statuses the serving layer emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request-body cap: a (max_batch, H, W, C) float32 payload rendered as a
#: JSON nested list is large but bounded; past this is a client error.
MAX_BODY_BYTES = 64 * 1024 * 1024

DispatchResult = tuple[int, "dict[str, object] | str", dict[str, str]]
Dispatch = Callable[[str, str, dict[str, str], bytes], Awaitable[DispatchResult]]


class _FramingError(Exception):
    """A request whose body cannot be delimited: answer ``status``, then
    close, since the rest of the stream no longer parses as requests."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _InferFn(Protocol):
    def __call__(
        self,
        model: str,
        x: np.ndarray,
        *,
        timeout_ms: float | None | object = "default",
        trace: TraceContext | None = None,
    ) -> Awaitable[np.ndarray]: ...


class JsonHttpServer:
    """Minimal keep-alive HTTP/1.1 server over a dispatch coroutine."""

    def __init__(self, dispatch: Dispatch) -> None:
        self._dispatch = dispatch
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.Task[None]] = set()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting, then close lingering keep-alive connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
            self._conns.clear()

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
            task.add_done_callback(self._conns.discard)
        try:
            while True:
                try:
                    request = await self.read_request(reader)
                except _FramingError as exc:
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, {}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra = await self._dispatch(
                    method, path, headers, body
                )
                await self._respond(writer, status, payload, extra)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            pass  # server stop closes lingering keep-alive connections
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict[str, object] | str",
        extra: dict[str, str],
        *,
        keep_alive: bool = True,
    ) -> None:
        if isinstance(payload, str):
            data = payload.encode()
            ctype = extra.pop("content-type", "text/plain; charset=utf-8")
        else:
            data = (json.dumps(payload) + "\n").encode()
            ctype = "application/json"
        head = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(data)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{k}: {v}" for k, v in extra.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
        await writer.drain()

    @staticmethod
    async def read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _ = line.decode("latin-1").split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        # Content-Length is 1*DIGIT: a sign, blank or non-ASCII digit leaves
        # the body's end unknown.  An oversized body is refused unread.
        raw = headers.get("content-length", "0")
        if not (raw.isascii() and raw.isdigit()):
            raise _FramingError(400, f"malformed Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise _FramingError(
                413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body


async def handle_infer_request(
    infer: _InferFn, headers: dict[str, str], body: bytes
) -> DispatchResult:
    """The shared ``POST /v1/infer`` body around any infer coroutine."""
    # Continue the client's W3C trace (or start one) before any parsing
    # can fail, so even error responses carry the traceparent back.
    trace: TraceContext | None = None
    extra: dict[str, str] = {}
    if enabled():
        trace = telemetry.start_trace(headers.get("traceparent"))
        extra["traceparent"] = trace.traceparent()
    try:
        try:
            payload = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or "model" not in payload
            or "inputs" not in payload
        ):
            raise BadRequest('POST /v1/infer expects {"model": ..., "inputs": ...}')
        try:
            x = np.asarray(payload["inputs"], dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"inputs are not a numeric array: {exc}") from exc
        timeout_ms = (
            check_timeout_ms(payload["timeout_ms"]) if "timeout_ms" in payload else "default"
        )
        t0 = time.perf_counter()
        out = await infer(str(payload["model"]), x, timeout_ms=timeout_ms, trace=trace)
    except ServeError as exc:
        err: dict[str, object] = {"error": str(exc), "kind": type(exc).__name__}
        if trace is not None:
            err["trace_id"] = trace.trace_id
        return exc.http_status, err, extra
    response: dict[str, object] = {
        "model": payload["model"],
        "outputs": out.tolist(),
        "latency_ms": (time.perf_counter() - t0) * 1e3,
    }
    if trace is not None:
        response["trace_id"] = trace.trace_id
    return 200, response, extra
