"""Load generators: a due-time open loop and a keep-alive HTTP closed loop.

The open loop sends request ``i`` at ``start + i / rate`` whatever happened
to earlier requests, and times each request from when it was *due*, not
from when it was sent: a stall that delays later sends is charged to those
requests, and the generator's own lateness (sent - due) is reported beside
the latency.  ``repro.serve.loadgen.open_loop`` times from the send; it is
the program's own tool and stays as it is.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from .probe import Visit


@dataclass(eq=False)
class Request:
    """One generated request and its timestamps (perf_counter seconds)."""

    index: int
    payload: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    visit: Visit = field(default_factory=Visit)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


async def open_loop(
    call: Callable[[Request], Awaitable[None]],
    *,
    rate: float,
    seconds: float,
    payload_of: Callable[[int], int],
    first_index: int = 0,
    abort: Callable[[list[Request]], bool] | None = None,
) -> list[Request]:
    """Issue ``rate * seconds`` requests on a fixed schedule; await them all.

    ``call`` sets ``sent`` just before handing the request over, ``done``
    and ``ok`` when it returns, and must not raise.  ``abort`` is consulted
    before each send; once it returns True no further request is sent.
    """
    period = 1.0 / rate
    start = time.perf_counter()
    requests: list[Request] = []
    tasks: list[asyncio.Task[None]] = []
    for i in range(max(1, round(seconds * rate))):
        due = start + i * period
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if abort is not None and abort(requests):
            break
        req = Request(first_index + i, payload_of(first_index + i), due)
        requests.append(req)
        tasks.append(asyncio.create_task(call(req)))
    await asyncio.gather(*tasks)
    return requests


@dataclass(eq=False)
class Exchange:
    """One HTTP request/response on a closed-loop connection."""

    payload: int
    sent: float
    done: float
    status: int
    request_bytes: int  # on the wire, headers included
    response_bytes: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes, int]:
    """``(status, body, bytes read)`` of one response."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    nbytes = len(status_line)
    while True:
        header = await reader.readline()
        nbytes += len(header)
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length), nbytes + length


def post(host: str, path: str, body: bytes) -> bytes:
    """A complete keep-alive ``POST`` request, encoded once before timing."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    return head.encode() + body


async def get_status(host: str, port: int, path: str) -> int:
    """Status of one ``GET`` on a fresh connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        status, _, _ = await _read_response(reader)
        return status
    finally:
        writer.close()
        await writer.wait_closed()


async def closed_loop_http(
    host: str,
    port: int,
    requests: list[bytes],
    *,
    connections: int,
    seconds: float,
    payload_of: Callable[[int], int],
    first_index: int = 0,
) -> list[Exchange]:
    """``connections`` clients, each sending its next request on a reply.

    ``requests[k]`` is the pre-encoded request for payload ``k``.  Requests
    are numbered globally in send order; the run stops issuing after
    ``seconds`` and waits for the replies in flight.
    """
    end = time.perf_counter() + seconds
    out: list[Exchange] = []
    counter = iter(range(first_index, 1 << 62))

    async def client() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while time.perf_counter() < end:
                payload = payload_of(next(counter))
                data = requests[payload]
                t0 = time.perf_counter()
                writer.write(data)
                await writer.drain()
                status, body, nbytes = await _read_response(reader)
                out.append(Exchange(payload, t0, time.perf_counter(), status, len(data), nbytes, body))
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(client() for _ in range(connections)))
    return out
