"""serve-open: open-loop arrivals into an in-process ``InferenceService``.

Why this workload: users arrive independently of each other, so requests
come on a fixed schedule whatever the service is doing.  At 40 req/s almost
every flush carries one request, so per-call overhead and the
``MIN_EXECUTE_ROWS`` padding dominate.  The capacity search that follows is
the only place dynamic batching can pay off, and the only workload where
queueing shows.  ResNet-18 (width 0.125) runs under the default
``BatchPolicy``; requests carry no deadline, so overload shows as latency,
never as an expired request.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Callable

import numpy as np

from repro import runtime
from repro.serve.errors import ServeError
from repro.serve.service import InferenceService

from ..common import (
    Context,
    Outcome,
    mean,
    overhead_frac,
    percentile,
    row_key,
    same_bits,
    timed_setups,
)
from ..loadgen import Request, open_loop
from ..probe import Probe, batching_metrics, conv_flops_per_image
from ..spans import Recorder

MODEL = "resnet18"
WIDTH = 0.125
IMAGE = 32
PAYLOADS = 64
#: Fixed arrival rate of the latency phase, req/s.
RATE = 40.0
#: Capacity criterion: at most 1% of a probe's requests (its p99) may take
#: longer than this from their due time, and none may fail.
LIMIT_MS = 50.0
LATE_SHARE = 0.01
#: Capacity ladder: offered rates RATE * STEP**k.
STEP = 1.05
PROBE_S = 2.0
#: Traced runs alternate tracing on and off in blocks this long (at most).
BLOCK_S = 1.0


def payloads(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """64 seeded images and the seeded order requests draw them in."""
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((PAYLOADS, IMAGE, IMAGE, 3), dtype=np.float32)
    return images, rng.integers(0, PAYLOADS, size=4096)


def inputs(seed: int, quick: bool) -> list[np.ndarray]:
    return list(payloads(seed))


def build_service() -> InferenceService:
    """Set-up: a fresh service with the model registered and warmed."""
    runtime.clear_cache()
    service = InferenceService()
    service.registry.register(MODEL, arch=MODEL, image=IMAGE, width_mult=WIDTH)
    return service


def run(ctx: Context) -> Outcome:
    images, order = payloads(ctx.seed)
    setup_s, service = timed_setups(build_service, lambda _: None, ctx.setup_reps, ctx.import_s)
    return asyncio.run(_run(ctx, service, images, order, setup_s))


class Capacity:
    """Probes on the rate ladder, bisecting to the highest rate that passes."""

    def __init__(self) -> None:
        self.good: int | None = None  # highest ladder index that passed
        self.bad: int | None = None  # lowest that failed
        self.best = 0.0  # achieved req/s of the passing probe at ``good``
        self.log: list[tuple[float, bool, int]] = []

    def record(self, k: int, passed: bool, achieved: float) -> None:
        self.log.append((round(RATE * STEP**k, 1), passed, k))
        if passed and (self.good is None or k > self.good):
            self.good, self.best = k, achieved
        if not passed and (self.bad is None or k < self.bad):
            self.bad = k

    def next(self, k: int, step: int) -> int | None:
        if self.good is not None and self.bad is not None:
            return None if self.bad - self.good <= 1 else (self.good + self.bad) // 2
        return k + step if self.bad is None else k - step


async def _run(
    ctx: Context, service: InferenceService, images: np.ndarray, order: np.ndarray, setup_s: float
) -> Outcome:
    await service.start()
    try:
        return await _measure(ctx, service, images, order, setup_s)
    finally:
        await service.stop()


async def _measure(
    ctx: Context, service: InferenceService, images: np.ndarray, order: np.ndarray, setup_s: float
) -> Outcome:
    entry = service.registry.get(MODEL)
    refs = [entry.infer_rows(img[None])[0] for img in images]
    flops = conv_flops_per_image(entry)
    recorder = Recorder() if ctx.trace else None
    probe = Probe(recorder) if ctx.trace else None
    if probe is not None:
        probe.attach_model(entry)
    late: list[int] = [0]  # requests over the limit in the current probe
    next_index = [0]

    def payload_of(i: int) -> int:
        return int(order[i % len(order)])

    async def call(req: Request) -> None:
        x = images[req.payload]
        key = row_key(x) if probe is not None else b""
        req.sent = req.visit.submit = time.perf_counter()
        if probe is not None:
            probe.expect(key, req.visit)
        try:
            y = await service.infer(MODEL, x, timeout_ms=None)
            req.ok = same_bits(y, refs[req.payload])
        except ServeError:
            req.ok = False
        req.done = req.visit.done = time.perf_counter()
        if probe is not None:
            probe.release(key, req.visit)
            if req.visit.traced and recorder is not None:
                _record_request(recorder, req)
        if req.latency_ms > LIMIT_MS or not req.ok:
            late[0] += 1

    async def phase(rate: float, seconds: float, abort: Callable | None = None) -> list[Request]:
        reqs = await open_loop(
            call, rate=rate, seconds=seconds, payload_of=payload_of,
            first_index=next_index[0], abort=abort,
        )
        next_index[0] += len(reqs)
        return reqs

    drainer = asyncio.create_task(_absorb(probe)) if probe is not None else None
    try:
        await phase(RATE, ctx.warmup_s)
        stats0 = service.scheduler.stats()
        if probe is None:
            fixed = await phase(RATE, ctx.seconds)
        else:
            toggler = asyncio.create_task(_alternate(probe, min(BLOCK_S, ctx.seconds / 8)))
            late[0] = 0
            fixed = await phase(RATE, ctx.seconds / 2)
            toggler.cancel()
            await asyncio.gather(toggler, return_exceptions=True)
            probe.trace(False)
            # The latency phase is rung 0 of the ladder; the search starts at
            # one request per forward time measured so far, the rate at which
            # batch-1 dispatch saturates the execute thread.
            capacity = Capacity()
            capacity.record(0, _passed(fixed, late[0], len(fixed)), _achieved(fixed))
            stats = service.scheduler.stats()
            forward_s = (stats.cost_measured_ns_sum - stats0.cost_measured_ns_sum) / 1e9 / max(
                1, stats.batches - stats0.batches
            )
            probes = await _search(
                capacity, phase, late, 1.0 / forward_s, ctx.seconds / 2,
                0.3 if ctx.quick else PROBE_S,
            )
    finally:
        if drainer is not None:
            drainer.cancel()
            await asyncio.gather(drainer, return_exceptions=True)
    stats1 = service.scheduler.stats()
    measured = fixed if probe is None else fixed + probes
    outcome = Outcome(metrics={}, attempted=len(measured), failed=sum(not r.ok for r in measured))
    outcome.notes = {
        "fixed_requests": len(fixed),
        "gen_late_p99_ms": round(percentile([r.late_ms for r in fixed], 99), 3),
        "mean_batch": round(stats1.mean_batch_size, 3),
        "flush_triggers": stats1.batch_triggers,
    }
    if probe is None:
        outcome.metrics = {
            "setup_s": setup_s,
            "gflops": _achieved(fixed) * flops / 1e9,
            "mean_ms": mean(r.latency_ms for r in fixed),
        }
        return outcome
    probe.absorb_obs()
    traced = [r for r in fixed if r.visit.traced and probe.state(r.due, r.done)]
    off = [r.latency_ms for r in fixed if probe.state(r.due, r.done) is False]
    metrics = probe.model_metrics() | probe.serve_metrics([r.visit for r in traced])
    metrics |= batching_metrics(stats0, stats1)
    parts = mean(r.late_ms + r.visit.parts_ms for r in traced)
    metrics |= {
        "serve.gen_late_p99_ms": percentile([r.late_ms for r in fixed], 99),
        "serve.unattributed_frac": 1.0 - parts / mean(r.latency_ms for r in traced),
        "serve.max_rps": capacity.best,
        "e2e.p50_ms": percentile(off, 50),
        "e2e.p99_ms": percentile(off, 99),
        "obs.trace_overhead_frac": overhead_frac(
            mean(off), mean(r.latency_ms for r in traced), "lower"
        ),
    }
    probe.close()
    recorder.write(ctx.trace_path)
    outcome.metrics = metrics
    outcome.notes["probes"] = capacity.log
    outcome.notes["attribution"] = {
        "total": "request latency from due time",
        "unattributed_frac": metrics["serve.unattributed_frac"],
        "traced_requests": len(traced),
    }
    return outcome


async def _search(
    capacity: Capacity, phase: Callable, late: list[int], first_rate: float,
    seconds: float, probe_s: float,
) -> list[Request]:
    """Probe the rate ladder for ``seconds``, bisecting towards the limit."""
    k = max(1, math.floor(math.log(first_rate / RATE) / math.log(STEP)))
    if capacity.bad == 0:
        k = -1
    step = 1
    probes: list[Request] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() + probe_s <= end:
        planned = max(1, round(RATE * STEP**k * probe_s))
        late[0] = 0
        reqs = await phase(RATE * STEP**k, probe_s, _over_limit(late, planned))
        probes += reqs
        passed = len(reqs) == planned and _passed(reqs, late[0], planned)
        capacity.record(k, passed, _achieved(reqs))
        nk = capacity.next(k, step)
        if nk is None:
            break
        k, step = nk, step * 2
    return probes


def _record_request(recorder: Recorder, r: Request) -> None:
    v = r.visit
    root = recorder.add("request", r.due, r.done, rid=r.index)
    recorder.add("gen.late", r.due, r.sent, parent=root, rid=r.index)
    recorder.add("serve.queue", v.submit, v.entry, parent=root, rid=r.index)
    recorder.add("serve.execute", v.entry, v.exit, parent=root, rid=r.index)
    recorder.add("serve.respond", v.exit, v.done, parent=root, rid=r.index)


def _passed(reqs: list[Request], late: int, planned: float) -> bool:
    return all(r.ok for r in reqs) and late <= LATE_SHARE * planned


def _achieved(reqs: list[Request]) -> float:
    """Completed requests per second over the probe's span."""
    return len(reqs) / (max(r.done for r in reqs) - reqs[0].due)


def _over_limit(late: list[int], planned: int) -> Callable[[list[Request]], bool]:
    """Abort a probe once more requests than its p99 allows are over the limit.

    Completed requests are counted as they finish; requests still in flight
    count once their age passes the limit.
    """
    allowed = LATE_SHARE * planned
    first = [0]

    def abort(reqs: list[Request]) -> bool:
        while first[0] < len(reqs) and reqs[first[0]].done:
            first[0] += 1
        now = time.perf_counter()
        stuck = 0
        for i in range(first[0], len(reqs)):
            if (now - reqs[i].due) * 1e3 <= LIMIT_MS:
                break
            stuck += not reqs[i].done
        return late[0] + stuck > allowed

    return abort


async def _alternate(probe: Probe, block_s: float) -> None:
    """Switch tracing off and on every ``block_s`` until cancelled."""
    on = False
    while True:
        probe.trace(on)
        on = not on
        await asyncio.sleep(block_s)


async def _absorb(probe: Probe) -> None:
    """Fold finished ``repro.obs`` spans into the probe while the run goes on."""
    while True:
        await asyncio.sleep(0.2)
        probe.absorb_obs()
