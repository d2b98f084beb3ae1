"""Tests for the serving cost model: deadline-pressure flushing and the
scheduler's predicted-vs-actual batch cost accounting."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs, runtime
from repro.obs.perfledger import reset_ledger
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.serve import BatchPolicy, InferenceService, SchedulerConfig, closed_loop
from repro.serve.batching import DynamicBatcher, PendingRequest

ARCH = "resnet18"
WIDTH = 0.125
#: A width at which the engine rule keeps layer3-4 on Winograd, so compiled
#: executables run and the timing ledger has something to record.
WINO_WIDTH = 0.5
IMAGE = 32


@pytest.fixture(autouse=True)
def _fresh():
    runtime.clear_cache()
    runtime.configure(threads=0, workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    reset_ledger()
    yield
    runtime.clear_cache()
    runtime.configure(threads=0, workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    reset_ledger()


def _req(now: float, deadline: float | None, rows: int = 1) -> PendingRequest:
    return PendingRequest(
        model="m",
        rows=np.zeros((rows, 4, 4, 2), dtype=np.float32),
        squeeze=False,
        enqueued_at=now,
        deadline=deadline,
    )


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


class TestWorkspacePressure:
    """The byte·ns refinement of the raw-bytes workspace cap."""

    MB = 1 << 20

    def _batcher(self, policy: BatchPolicy, cost_ns: float) -> DynamicBatcher:
        return DynamicBatcher(
            policy,
            per_row_bytes=lambda model: self.MB,
            predicted_batch_ns=lambda model, rows: cost_ns,
        )

    def test_cheap_bucket_coalesces_past_the_raw_bytes_cap(self):
        # 1 MB/row against a 2 MB raw cap would stop at 2 rows; the rows
        # are cheap (1 ms residency), so the pressure budget lets the
        # bucket fill the full wave instead.
        policy = BatchPolicy(
            max_batch_size=8,
            max_workspace_bytes=2 * self.MB,
            max_workspace_byte_ns=1e13,
        )
        assert self._batcher(policy, cost_ns=1e6).max_rows_for("m") == 8

    def test_slow_bucket_caps_earlier_than_the_raw_cap_would(self):
        # Same bytes, 100x the residency: the pressure budget now binds
        # below even the raw-bytes cap.
        policy = BatchPolicy(
            max_batch_size=8,
            max_workspace_bytes=4 * self.MB,
            max_workspace_byte_ns=1e13,
        )
        assert self._batcher(policy, cost_ns=1e8).max_rows_for("m") == 1

    def test_cheap_but_large_bytes_bucket_no_longer_flushes_early(self):
        # The regression this knob exists for: under the raw-bytes cap a
        # cheap 1 MB/row bucket flushed at 2 rows; with the pressure
        # budget the same traffic coalesces until the wave is full.
        raw = BatchPolicy(max_batch_size=8, max_queue_delay_ms=10_000.0,
                          max_workspace_bytes=2 * self.MB)
        pressured = BatchPolicy(max_batch_size=8, max_queue_delay_ms=10_000.0,
                                max_workspace_bytes=2 * self.MB,
                                max_workspace_byte_ns=1e13)
        old = self._batcher(raw, cost_ns=1e6)
        new = self._batcher(pressured, cost_ns=1e6)
        for i in range(2):
            old.add(_req(now=100.0, deadline=None))
            new.add(_req(now=100.0, deadline=None))
        assert len(old.take_ready(now=100.0)) == 1  # raw cap: early flush
        assert new.take_ready(now=100.0) == []  # pressure: keep filling
        for i in range(6):
            new.add(_req(now=100.0, deadline=None))
        (batch,) = new.take_ready(now=100.0)
        assert batch.rows == 8
        assert batch.trigger == "size"

    def test_knob_without_cost_model_falls_back_to_raw_bytes(self):
        policy = BatchPolicy(
            max_batch_size=8,
            max_workspace_bytes=3 * self.MB,
            max_workspace_byte_ns=1e13,
        )
        batcher = DynamicBatcher(policy, per_row_bytes=lambda model: self.MB)
        assert batcher.max_rows_for("m") == 3

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="max_workspace_byte_ns"):
            BatchPolicy(max_workspace_byte_ns=0.0)
        with pytest.raises(ValueError, match="max_workspace_byte_ns"):
            BatchPolicy(max_workspace_byte_ns=-1.0)


def _service(width_mult: float = WIDTH, **config_kw) -> InferenceService:
    service = InferenceService(config=SchedulerConfig(**config_kw))
    service.registry.register("net", arch=ARCH, width_mult=width_mult, image=IMAGE)
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

    def test_v1_stats_exposes_perf_drift_report(self):
        async def scenario():
            service = _service(WINO_WIDTH, default_timeout_ms=None)
            async with service:
                await service.infer("net", _x())
                return service.stats()

        obs.enable()
        stats = asyncio.run(scenario())
        perf = stats["perf"]
        assert perf["tracked_keys"] > 0
        assert perf["executions"] > 0
        assert 0.0 <= perf["in_band_fraction"] <= 1.0
        assert "worst" in perf

    def test_ledger_stays_empty_with_obs_off(self):
        async def scenario():
            service = _service(WINO_WIDTH, default_timeout_ms=None)
            async with service:
                await service.infer("net", _x())
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["perf"]["tracked_keys"] == 0
        # Batch-cost accounting is always-on (plain counters, no clocks
        # beyond two perf_counter_ns reads per batch).
        assert stats["scheduler"]["batch_cost"]["count"] > 0


class TestLoadgenBatchCost:
    def test_result_carries_run_scoped_cost_summary(self):
        async def scenario():
            service = _service(
                policy=BatchPolicy(max_batch_size=4, max_queue_delay_ms=1.0),
                default_timeout_ms=None,
            )
            async with service:
                first = await closed_loop(service, "net", requests=8, concurrency=4)
                second = await closed_loop(service, "net", requests=8, concurrency=4)
                return first, second, service.scheduler.stats()

        first, second, stats = asyncio.run(scenario())
        for result in (first, second):
            assert result.batch_cost["count"] > 0
            assert result.batch_cost["measured_ms_sum"] > 0.0
            assert result.batch_cost["mean_abs_error_pct"] >= 0.0
        # Run-scoped, not cumulative: the two runs' counts add up to the
        # scheduler's total instead of double counting.
        total = first.batch_cost["count"] + second.batch_cost["count"]
        assert total == stats.cost_batches
        assert "batch cost:" in first.report()
        assert "batch_cost" in first.as_dict()
