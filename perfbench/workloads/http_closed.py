"""http-closed: two keep-alive clients against ``python -m repro.serve http``.

Why this workload: it is the only one that pays ``/v1/infer``'s JSON parse
and serialise cost, and it loads the serving layer differently from
serve-open: two requests in flight instead of a schedule.  The server runs
in its own process (ResNet-18, width 0.125, default batching); request
bodies are JSON-encoded before timing starts.  The JSON round trip of
float32 outputs is exact, so responses are checked bit for bit.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.registry import ModelRegistry

from ..common import (
    OUT,
    ROOT,
    Context,
    Outcome,
    mean,
    overhead_frac,
    percentile,
    same_bits,
    timed_setups,
)
from ..loadgen import Exchange, closed_loop_http, get_status, post
from ..probe import conv_flops_per_image
from ..spans import Recorder
from .serve_open import IMAGE, MODEL, WIDTH, payloads

CONNECTIONS = 2
SERVE_ARGS = ["http", "--model", MODEL, "--width-mult", str(WIDTH), "--port", "0"]
#: Traced runs switch the server's tracing every ``BLOCK_S`` (at most);
#: requests that straddle a switch count for neither side.
BLOCK_S = 1.0
START_TIMEOUT_S = 60.0


def inputs(seed: int, quick: bool) -> list[np.ndarray]:
    return list(payloads(seed))


@dataclass
class Server:
    """A server subprocess and the address it listens on."""

    proc: subprocess.Popen
    host: str
    port: int
    reader: threading.Thread

    @classmethod
    def start(cls, cmd: list[str]) -> "Server":
        """Spawn; return once ``/healthz`` answers 200."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        lines: queue.Queue[str | None] = queue.Queue()

        def pump() -> None:  # keeps the pipe drained for the server's lifetime
            for line in proc.stdout:  # type: ignore[union-attr]
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        server = cls(proc, "", 0, reader)
        try:
            deadline = time.monotonic() + START_TIMEOUT_S
            while not server.port:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
                if line is None:
                    raise RuntimeError(f"server exited with code {proc.wait()}")
                m = re.search(r"listening on http://([\d.]+):(\d+)", line)
                if m:
                    server.host, server.port = m.group(1), int(m.group(2))
            status = asyncio.run(get_status(server.host, server.port, "/healthz"))
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            server.stop()
            raise
        return server

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def stop(self) -> None:
        """Interrupt the server and wait for it (and its output pump) to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def run(ctx: Context) -> Outcome:
    images, order = payloads(ctx.seed)
    summary = OUT / f"{ctx.workload}-seed{ctx.seed}.server.json"
    cmd = [sys.executable, "-m", "repro.serve", *SERVE_ARGS]
    if ctx.trace:
        summary.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "serverproc.py"),
            "--summary", str(summary),
            "--trace-out", str(ctx.trace_path.with_suffix(".server.json")),
            *SERVE_ARGS,
        ]
    setup_s, server = timed_setups(lambda: Server.start(cmd), Server.stop, ctx.setup_reps)
    try:
        entry = ModelRegistry().register(MODEL, arch=MODEL, image=IMAGE, width_mult=WIDTH)
        refs = [entry.infer_rows(img[None])[0] for img in images]
        flops = conv_flops_per_image(entry)
        bodies = [json.dumps({"model": MODEL, "inputs": img.tolist()}).encode() for img in images]
        requests = [post(server.host, "/v1/infer", b) for b in bodies]
        exchanges, blocks = asyncio.run(_drive(ctx, server, requests, order))
    finally:
        server.stop()

    failed = 0
    server_ms: list[float] = []
    for ex in exchanges:
        doc = json.loads(ex.body) if ex.status == 200 else {}
        out = np.asarray(doc.get("outputs", []), dtype=np.float32)
        failed += not same_bits(out, refs[ex.payload])
        server_ms.append(float(doc.get("latency_ms", 0.0)))
    outcome = Outcome(metrics={}, attempted=len(exchanges), failed=failed)
    start = min(ex.sent for ex in exchanges)
    rps = len(exchanges) / (max(ex.done for ex in exchanges) - start)
    outcome.notes = {"requests": len(exchanges), "rps": round(rps, 2)}
    if not ctx.trace:
        outcome.metrics = {
            "setup_s": setup_s,
            "gflops": rps * flops / 1e9,
            "mean_ms": mean(ex.latency_ms for ex in exchanges),
        }
        return outcome

    metrics = json.loads(summary.read_text())
    server_parts_ms = metrics.pop("server_parts_ms")
    on = [i for i, ex in enumerate(exchanges) if _block_state(blocks, ex) is True]
    off = [i for i, ex in enumerate(exchanges) if _block_state(blocks, ex) is False]
    on_s = sum(t1 - t0 for t0, t1, state in blocks if state)
    off_s = sum(t1 - t0 for t0, t1, state in blocks if not state)
    server_on = mean(server_ms[i] for i in on)
    metrics |= {
        "http.server_ms": server_on,
        "http.wire_ms": mean(exchanges[i].latency_ms - server_ms[i] for i in on),
        "http.request_bytes": mean(exchanges[i].request_bytes for i in on),
        "http.response_bytes": mean(exchanges[i].response_bytes for i in on),
        "serve.unattributed_frac": 1.0 - server_parts_ms / server_on,
        "e2e.p50_ms": percentile([exchanges[i].latency_ms for i in off], 50),
        "e2e.p99_ms": percentile([exchanges[i].latency_ms for i in off], 99),
        "obs.trace_overhead_frac": overhead_frac(len(off) / off_s, len(on) / on_s, "higher"),
    }
    recorder = Recorder()
    for i in on:
        recorder.add("http.request", exchanges[i].sent, exchanges[i].done, rid=i)
    recorder.write(ctx.trace_path)
    outcome.metrics = metrics
    outcome.notes["attribution"] = {
        "total": "client latency = http.wire_ms + http.server_ms",
        "unattributed_frac": metrics["serve.unattributed_frac"],
        "traced_requests": len(on),
    }
    return outcome


async def _drive(
    ctx: Context, server: Server, requests: list[bytes], order: np.ndarray
) -> tuple[list[Exchange], list[tuple[float, float, bool]]]:
    """Warm up, then run the timed closed loop (switching tracing if traced)."""

    def payload_of(i: int) -> int:
        return int(order[i % len(order)])

    def loop(seconds: float, first: int) -> asyncio.Future:
        return asyncio.ensure_future(closed_loop_http(
            server.host, server.port, requests, connections=CONNECTIONS,
            seconds=seconds, payload_of=payload_of, first_index=first,
        ))

    warm = await loop(ctx.warmup_s, 0)
    timed = loop(ctx.seconds, len(warm))
    blocks: list[tuple[float, float, bool]] = []
    if ctx.trace:
        on = False
        start = time.perf_counter()
        while not timed.done():
            server.signal(signal.SIGUSR1 if on else signal.SIGUSR2)
            await asyncio.wait([timed], timeout=min(BLOCK_S, ctx.seconds / 4))
            now = time.perf_counter()
            blocks.append((start, now, on))
            start, on = now, not on
    return await timed, blocks


def _block_state(blocks: list[tuple[float, float, bool]], ex: Exchange) -> bool | None:
    """The tracing state of the block an exchange lies wholly inside, if any."""
    for t0, t1, state in blocks:
        if t0 <= ex.sent and ex.done <= t1:
            return state
    return None
