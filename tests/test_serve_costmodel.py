"""Tests for serving batch quotes: measured-wallclock pricing,
deadline-pressure flushing and the scheduler's quoted-vs-measured batch
cost accounting."""

from __future__ import annotations

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro import obs, runtime
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.serve import BatchPolicy, InferenceService, SchedulerConfig
from repro.serve.batching import DynamicBatcher, PendingRequest
from repro.serve.registry import RegisteredModel

ARCH = "resnet18"
WIDTH = 0.125
IMAGE = 32


@pytest.fixture(autouse=True)
def _fresh():
    runtime.clear_cache()
    runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    yield
    runtime.clear_cache()
    runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    obs.disable()
    obs.reset()
    obs.get_registry().reset()


def _req(now: float, deadline: float | None, rows: int = 1) -> PendingRequest:
    return PendingRequest(
        model="m",
        rows=np.zeros((rows, 4, 4, 2), dtype=np.float32),
        squeeze=False,
        enqueued_at=now,
        deadline=deadline,
    )


class TestMeasuredQuote:
    """A model's batch quote is its latest measured batch, fed here by hand."""

    def _entry(self, warmup_ms: float = 0.0) -> RegisteredModel:
        entry = RegisteredModel(name="m", model=None, input_shapes=((4, 4, 2),))  # type: ignore[arg-type]
        if warmup_ms:
            entry.warmup_ms = warmup_ms
            entry.record_batch_ns(1, warmup_ms * 1e6)
        return entry

    def test_quote_is_the_latest_measurement_at_that_row_count(self):
        entry = self._entry()
        entry.record_batch_ns(3, 9e6)
        assert entry.predicted_batch_ns(3) == 9e6
        entry.record_batch_ns(3, 7e6)  # latest, not the max or the mean
        assert entry.predicted_batch_ns(3) == 7e6

    def test_unrun_row_count_never_quotes_below_a_smaller_one(self):
        entry = self._entry()
        entry.record_batch_ns(1, 5e6)
        entry.record_batch_ns(2, 8e6)
        entry.record_batch_ns(6, 20e6)
        assert entry.predicted_batch_ns(4) == 8e6  # largest at 1..3 rows
        assert entry.predicted_batch_ns(7) == 20e6
        entry.record_batch_ns(2, 30e6)  # a slow 2-row batch lifts every larger quote
        assert entry.predicted_batch_ns(4) == 30e6
        assert entry.predicted_batch_ns(7) == 30e6
        assert entry.predicted_batch_ns(6) == 20e6  # measured rows quote themselves

    def test_warmup_seeds_the_quote_before_any_batch(self):
        entry = self._entry(warmup_ms=12.5)
        assert entry.predicted_batch_ns(1) == 12.5e6
        assert entry.predicted_batch_ns(8) == 12.5e6
        entry.record_batch_ns(1, 4e6)  # the first served batch replaces the seed
        assert entry.predicted_batch_ns(1) == 4e6
        assert entry.predicted_batch_ns(8) == 4e6

    def test_no_measurement_quotes_zero(self):
        entry = self._entry()
        assert entry.predicted_batch_ns(1) == 0.0
        entry.record_batch_ns(4, 1e6)
        assert entry.predicted_batch_ns(2) == 0.0

    def test_concurrent_records_and_quotes(self):
        """Execute workers record while the loop quotes: no lost update and
        no quote taken over a dict that changes under it."""
        entry = self._entry()
        errors: list[BaseException] = []
        done = threading.Event()

        def quote() -> None:
            try:
                while not done.is_set():
                    entry.predicted_batch_ns(64)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def record(worker: int) -> None:
            for rows in range(1 + worker, 200, 4):
                entry.record_batch_ns(rows, float(rows))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=quote)
            writers = [threading.Thread(target=record, args=(i,)) for i in range(4)]
            reader.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=30.0)
            done.set()
            reader.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
        assert not reader.is_alive() and not any(t.is_alive() for t in writers)
        assert errors == []
        assert [entry.predicted_batch_ns(k) for k in range(1, 200)] == [
            float(k) for k in range(1, 200)
        ]

    def test_registration_seeds_from_the_timed_warmup(self):
        service = _service()
        entry = service.registry.get("net")
        assert entry.warmup_ms > 0.0
        assert entry.predicted_batch_ns(1) == entry.warmup_ms * 1e6

    def test_served_batches_replace_the_seed(self):
        async def scenario():
            service = _service(default_timeout_ms=None)
            seed = service.registry.get("net").predicted_batch_ns(1)
            async with service:
                await service.infer("net", _x())
            return seed, service.registry.get("net"), service.scheduler.stats()

        seed, entry, stats = asyncio.run(scenario())
        # The one batch was quoted the seed and then priced the next one.
        assert stats.cost_predicted_ns_sum == seed
        assert entry.predicted_batch_ns(1) == stats.cost_measured_ns_sum


class TestDeadlinePressure:
    def test_flushes_early_when_cost_model_predicts_a_miss(self):
        # Deadline 50 ms out, predicted dispatch 200 ms: waiting any longer
        # than "now" already misses, so the batch must pop immediately even
        # though neither the size nor the delay trigger has fired.
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_queue_delay_ms=10_000.0),
            predicted_batch_ns=lambda model, rows: 200e6,
        )
        batcher.add(_req(now=100.0, deadline=100.05))
        batches = batcher.take_ready(now=100.0)
        assert len(batches) == 1
        assert batches[0].trigger == "deadline"
        assert batches[0].predicted_ns == pytest.approx(200e6)

    def test_no_pressure_without_cost_model(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_queue_delay_ms=10_000.0)
        )
        batcher.add(_req(now=100.0, deadline=100.05))
        assert batcher.take_ready(now=100.0) == []

    def test_no_pressure_when_prediction_fits_before_deadline(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_queue_delay_ms=10_000.0),
            predicted_batch_ns=lambda model, rows: 1e6,  # 1 ms
        )
        batcher.add(_req(now=100.0, deadline=101.0))
        assert batcher.take_ready(now=100.0) == []
        # ... but the pressure trigger fires once the margin is consumed.
        assert len(batcher.take_ready(now=100.9995)) == 1

    def test_next_due_includes_latest_safe_flush_instant(self):
        cost_ns = 50e6  # 50 ms
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_queue_delay_ms=10_000.0),
            predicted_batch_ns=lambda model, rows: cost_ns,
        )
        batcher.add(_req(now=100.0, deadline=101.0))
        due = batcher.next_due()
        assert due == pytest.approx(101.0 - cost_ns * 1e-9)

    def test_size_trigger_still_reports_size(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=2, max_queue_delay_ms=10_000.0),
            predicted_batch_ns=lambda model, rows: 1e9,
        )
        batcher.add(_req(now=100.0, deadline=None))
        batcher.add(_req(now=100.0, deadline=None))
        (batch,) = batcher.take_ready(now=100.0)
        assert batch.trigger == "size"
        assert batch.predicted_ns == pytest.approx(1e9)

    def test_drain_quotes_cost_and_trigger(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_queue_delay_ms=10_000.0),
            predicted_batch_ns=lambda model, rows: float(rows) * 1e6,
        )
        batcher.add(_req(now=100.0, deadline=None, rows=3))
        (batch,) = batcher.drain()
        assert batch.trigger == "drain"
        assert batch.predicted_ns == pytest.approx(3e6)


def _service(**config_kw) -> InferenceService:
    service = InferenceService(config=SchedulerConfig(**config_kw))
    service.registry.register("net", arch=ARCH, width_mult=WIDTH, image=IMAGE)
    return service


def _x(seed: int = 0) -> np.ndarray:
    return (
        np.random.default_rng(seed)
        .standard_normal((IMAGE, IMAGE, 3))
        .astype(np.float32)
    )


class TestSchedulerBatchCost:
    def test_every_executed_batch_is_costed(self):
        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=4, max_queue_delay_ms=1.0),
                default_timeout_ms=None,
            )
            async with service:
                await asyncio.gather(*(service.infer("net", _x(i)) for i in range(8)))
                return service.scheduler.stats(), service.stats()

        stats, svc_stats = asyncio.run(scenario())
        assert stats.batches > 0
        assert stats.cost_batches == stats.batches
        assert stats.cost_measured_ns_sum > 0.0
        assert stats.cost_predicted_ns_sum > 0.0
        assert stats.mean_cost_error_pct >= 0.0
        d = svc_stats["scheduler"]["batch_cost"]
        assert d["count"] == stats.batches
        assert d["measured_ms_sum"] > 0.0
        assert sum(svc_stats["scheduler"]["flush_triggers"].values()) == stats.batches

    def test_stats_snapshot_copies_cost_fields(self):
        async def scenario():
            service = _service(default_timeout_ms=None)
            async with service:
                await service.infer("net", _x())
                snap = service.scheduler.stats()
                snap.cost_batches += 100  # mutating the snapshot ...
                return snap, service.scheduler.stats()

        mutated, fresh = asyncio.run(scenario())
        assert fresh.cost_batches == mutated.cost_batches - 100  # ... not the source
