"""Tests for the serving layer's data plane (:mod:`repro.serve`).

The two contracts everything else leans on:

* **Batching equivalence** — any dynamic batch composition returns, per
  request, the exact bits batch-1 serial execution would have produced
  (every BLAS contraction runs in signature-fixed row blocks, so row
  arithmetic is independent of batch-mates).
* **Weight-reload invalidation** — swapping a served model's weights
  re-freezes it: each frozen conv transforms the new weights exactly once
  (one filter-cache miss), then hits again, and the served outputs change.

Plus unit coverage of the registry (validation, registration lifecycle)
and the pure batcher data structure (flush triggers, stack/split).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs, runtime
from repro.dlframe.autograd import Tensor, no_grad
from repro.dlframe.serialization import save_weights
from repro.dlframe.trainer import conv_layer_geometries
from repro.runtime.cache import DEFAULT_CAPACITY, global_cache
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.serve import (
    BadRequest,
    Batch,
    BatchPolicy,
    DynamicBatcher,
    InferenceService,
    ModelNotFound,
    ModelRegistry,
    PendingRequest,
    SchedulerConfig,
)
from repro.serve.registry import MODEL_BUILDERS


@pytest.fixture(autouse=True)
def _fresh_runtime():
    """Each test sees an empty plan cache and default dispatch config."""
    runtime.clear_cache()
    runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    global_cache().resize(DEFAULT_CAPACITY)
    yield
    runtime.clear_cache()
    runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    global_cache().resize(DEFAULT_CAPACITY)


#: A ResNet width at which the engine rule keeps layer3-4 (128 and 256
#: channels at 8x8 and 4x4) on Winograd; at 0.125 every conv runs GEMM.
WINO_WIDTH = 0.5


def _runtime_convs(entry) -> int:
    """Unit-stride convs: each runs in the runtime, Winograd or rule-picked
    GEMM, and holds one frozen filter bundle per input width."""
    return sum(
        layer.stride == 1
        for layer, *_ in conv_layer_geometries(entry.model, (1, 32, 32, 3))
    )


def _counter_total(name: str) -> float:
    metric = obs.get_registry().get(name)
    return metric.total() if metric is not None else 0.0


def _request(model: str, rows: np.ndarray, *, at: float = 0.0, deadline=None):
    return PendingRequest(
        model=model, rows=rows, squeeze=False, enqueued_at=at, deadline=deadline
    )


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_register_builds_and_warms(self):
        reg = ModelRegistry()
        entry = reg.register("r18", arch="resnet18", width_mult=WINO_WIDTH)
        assert 0 < entry.winograd_convs < entry.total_convs
        assert entry.executables_resolved > 0
        assert entry.warmup_ms > 0
        assert "r18" in reg and len(reg) == 1
        desc = entry.describe()
        for key in ("weight_version", "executables_resolved", "parameters"):
            assert key in desc

    def test_unknown_arch_and_duplicate_name(self):
        reg = ModelRegistry()
        with pytest.raises(ModelNotFound):
            reg.register("nope", arch="alexnet")
        reg.register("a", arch="resnet18", width_mult=0.125, warmup=False)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", arch="resnet18", width_mult=0.125, warmup=False)
        with pytest.raises(ModelNotFound):
            reg.get("missing")

    def test_validate_shapes(self):
        reg = ModelRegistry()
        entry = reg.register("r18", arch="resnet18", width_mult=0.125, warmup=False)
        rows, squeeze = entry.validate(np.zeros((32, 32, 3), np.float32))
        assert rows.shape == (1, 32, 32, 3) and squeeze
        rows, squeeze = entry.validate(np.zeros((3, 32, 32, 3), np.float32))
        assert rows.shape == (3, 32, 32, 3) and not squeeze
        with pytest.raises(BadRequest):
            entry.validate(np.zeros((16, 16, 3), np.float32))  # unregistered size
        with pytest.raises(BadRequest):
            entry.validate(np.zeros((32, 32), np.float32))

    def test_min_execute_rows_padding_is_bit_neutral(self, rng):
        """A 1-row request returns the same bits as its row inside a batch."""
        reg = ModelRegistry()
        entry = reg.register("r18", arch="resnet18", width_mult=0.125)
        xs = rng.standard_normal((5, 32, 32, 3)).astype(np.float32)
        whole = entry.infer_rows(xs)
        for i in range(xs.shape[0]):
            solo = entry.infer_rows(xs[i : i + 1])
            np.testing.assert_array_equal(solo[0], whole[i])

    def test_vgg16_any_split_is_bit_neutral(self, rng):
        """VGG16, the served model with MaxPool: any split of a batch returns
        the bits of batch-1 serial execution."""
        reg = ModelRegistry()
        entry = reg.register("vgg", arch="vgg16", width_mult=0.125)
        xs = rng.standard_normal((5, 32, 32, 3)).astype(np.float32)
        serial = np.concatenate([entry.infer_rows(xs[i : i + 1]) for i in range(5)])
        for cuts in ([], [2], [1, 4], [3]):
            got = np.concatenate([entry.infer_rows(p) for p in np.split(xs, cuts)])
            np.testing.assert_array_equal(got, serial)


class TestWeightReload:
    """Satellite: load_weights invalidates the filter-transform cache once."""

    def test_reload_misses_once_per_conv_then_hits(self, rng, tmp_path):
        path = str(tmp_path / "new_weights.npz")
        with obs.capture():
            reg = ModelRegistry()
            entry = reg.register("r18", arch="resnet18", width_mult=WINO_WIDTH, seed=0)
            # Warmup built exactly one filter bundle per frozen runtime conv.
            assert 0 < entry.winograd_convs < _runtime_convs(entry)
            assert _counter_total("runtime.filter_cache.misses") == _runtime_convs(entry)

            x = rng.standard_normal((2, 32, 32, 3)).astype(np.float32)
            before_y = entry.infer_rows(x)
            misses0 = _counter_total("runtime.filter_cache.misses")
            hits0 = _counter_total("runtime.filter_cache.hits")
            entry.infer_rows(x)  # steady state: all hits
            assert _counter_total("runtime.filter_cache.misses") == misses0
            assert _counter_total("runtime.filter_cache.hits") > hits0

            # Swap in differently-initialised weights of the same shape.
            donor = ModelRegistry().register(
                "donor", arch="resnet18", width_mult=WINO_WIDTH, seed=1, warmup=False
            )
            save_weights(donor.model, path)
            reg.load_weights("r18", path, warmup=False)
            assert entry.weight_version == 1

            misses1 = _counter_total("runtime.filter_cache.misses")
            after_y = entry.infer_rows(x)
            # Exactly one new miss per conv: new weights, same plans.
            assert (
                _counter_total("runtime.filter_cache.misses") - misses1
                == _runtime_convs(entry)
            )
            misses2 = _counter_total("runtime.filter_cache.misses")
            entry.infer_rows(x)  # and hits thereafter
            assert _counter_total("runtime.filter_cache.misses") == misses2

        assert not np.array_equal(before_y, after_y)

    def test_reload_with_warmup_prepays_misses(self, tmp_path):
        path = str(tmp_path / "w.npz")
        with obs.capture():
            reg = ModelRegistry()
            entry = reg.register("r18", arch="resnet18", width_mult=0.125, seed=0)
            donor = ModelRegistry().register(
                "donor", arch="resnet18", width_mult=0.125, seed=2, warmup=False
            )
            save_weights(donor.model, path)
            reg.load_weights("r18", path)  # warmup=True re-pays the misses now
            misses = _counter_total("runtime.filter_cache.misses")
            entry.infer_rows(np.zeros((2, 32, 32, 3), np.float32))
            assert _counter_total("runtime.filter_cache.misses") == misses


class TestFrozenServing:
    """Registered models are frozen: per-call filter work is gone, bits are not."""

    @pytest.mark.parametrize("arch", ["resnet18", "resnet34", "vgg16"])
    def test_bit_identical_to_eval_including_after_reload(self, rng, tmp_path, arch):
        width = 0.125
        x = rng.standard_normal((3, 32, 32, 3)).astype(np.float32)
        reg = ModelRegistry()
        entry = reg.register(arch, arch=arch, width_mult=width, seed=0)
        donor = ModelRegistry().register(
            "donor", arch=arch, width_mult=width, seed=1, warmup=False
        )
        path = str(tmp_path / "w.npz")
        save_weights(donor.model, path)
        for seed in (0, 1):
            if seed == 1:
                reg.load_weights(arch, path)
            # The unfrozen twin convolves through the filter cache instead.
            twin = MODEL_BUILDERS[arch](classes=10, width_mult=width, seed=seed).eval()
            with no_grad():
                want = twin(Tensor(x)).data
            np.testing.assert_array_equal(entry.infer_rows(x), want)

    def test_served_resnet34_rebuilds_no_filter_transforms(self, rng):
        """11 same-signature convs in layer3 once thrashed the 4-slot filter
        cache; frozen layers hold their own transforms instead."""
        reg = ModelRegistry()
        entry = reg.register("r34", arch="resnet34", width_mult=WINO_WIDTH)
        assert entry.winograd_convs > 0
        x = rng.standard_normal((2, 32, 32, 3)).astype(np.float32)
        entry.infer_rows(x)
        with obs.capture():
            entry.infer_rows(x)
            misses = _counter_total("runtime.filter_cache.misses")
            hits = _counter_total("runtime.filter_cache.hits")
        assert misses == 0
        assert hits == _runtime_convs(entry)


# ---------------------------------------------------------------------------
# batcher (pure data structure; no event loop)


class TestBatchPolicy:
    @pytest.mark.parametrize(
        "kw",
        [
            {"max_batch_size": 0},
            {"max_queue_delay_ms": -1.0},
            {"max_queue_delay_ms": float("nan")},
            {"max_queue_delay_ms": float("inf")},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            BatchPolicy(**kw)


class TestSchedulerConfig:
    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_default_timeout(self, timeout):
        with pytest.raises(ValueError, match="default_timeout_ms"):
            SchedulerConfig(default_timeout_ms=timeout)

    @pytest.mark.parametrize("timeout", [None, 0.5, 1000.0])
    def test_accepts_default_timeout(self, timeout):
        assert SchedulerConfig(default_timeout_ms=timeout).default_timeout_ms == timeout


class TestDynamicBatcher:
    ROW = np.zeros((1, 8, 8, 3), np.float32)

    def test_full_bucket_flushes_in_order(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=3, max_queue_delay_ms=1e6))
        reqs = [_request("m", self.ROW) for _ in range(3)]
        assert not b.add(reqs[0])
        assert not b.add(reqs[1])
        assert b.add(reqs[2])  # bucket hit the cap
        batches = b.take_ready(now=0.0)
        assert len(batches) == 1
        assert [r.rid for r in batches[0].requests] == [r.rid for r in reqs]
        assert b.pending_requests() == 0

    def test_delay_flushes_partial_bucket(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=8, max_queue_delay_ms=5.0))
        b.add(_request("m", self.ROW, at=100.0))
        assert b.take_ready(now=100.004) == []
        assert b.next_due() == pytest.approx(100.005)
        batches = b.take_ready(now=100.006)
        assert len(batches) == 1 and batches[0].rows == 1

    def test_signature_bucketing(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2, max_queue_delay_ms=1e6))
        b.add(_request("m", np.zeros((1, 8, 8, 3), np.float32)))
        b.add(_request("m", np.zeros((1, 4, 4, 3), np.float32)))  # other shape
        b.add(_request("other", np.zeros((1, 8, 8, 3), np.float32)))  # other model
        assert len(list(b.buckets())) == 3
        assert b.take_ready(now=0.0) == []  # nothing full, nothing overdue

    def test_multirow_request_never_splits(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2, max_queue_delay_ms=0.0))
        big = _request("m", np.zeros((5, 8, 8, 3), np.float32))
        b.add(big)
        batches = b.take_ready(now=1.0)  # overdue immediately (delay 0)
        assert len(batches) == 1 and batches[0].rows == 5
        assert batches[0].requests == [big]

    def test_expire_removes_dead_requests(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=8, max_queue_delay_ms=1e6))
        live = _request("m", self.ROW, deadline=10.0)
        dead = _request("m", self.ROW, deadline=1.0)
        b.add(live)
        b.add(dead)
        assert b.expire(now=2.0) == [dead]
        assert b.pending_requests() == 1
        assert b.next_due() == pytest.approx(10.0)  # deadline drives the wake

    def test_drain_flushes_everything(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2, max_queue_delay_ms=1e6))
        for _ in range(5):
            b.add(_request("m", self.ROW))
        batches = b.drain()
        assert sum(batch.rows for batch in batches) == 5
        assert b.pending_requests() == 0


class TestBatchStackSplit:
    def test_roundtrip_preserves_bits_and_squeeze(self, rng):
        reqs = []
        for k, squeeze in [(1, True), (2, False), (3, False)]:
            rows = rng.standard_normal((k, 4, 4, 3)).astype(np.float32)
            req = _request("m", rows)
            req.squeeze = squeeze
            reqs.append(req)
        batch = Batch(key=("m", (4, 4, 3), "float32"), requests=reqs)
        stacked = batch.stacked()
        assert stacked.flags["C_CONTIGUOUS"] and stacked.shape[0] == 6
        parts = batch.split(stacked)
        np.testing.assert_array_equal(parts[0], reqs[0].rows[0])  # squeezed
        np.testing.assert_array_equal(parts[1], reqs[1].rows)
        np.testing.assert_array_equal(parts[2], reqs[2].rows)

    def test_split_mismatch_raises(self):
        batch = Batch(
            key=("m", (4, 4, 3), "float32"),
            requests=[_request("m", np.zeros((2, 4, 4, 3), np.float32))],
        )
        with pytest.raises(ValueError, match="batch split mismatch"):
            batch.split(np.zeros((3, 10), np.float32))


# ---------------------------------------------------------------------------
# batching equivalence through the full async stack (satellite #4)


class TestBatchingEquivalence:
    """Dynamic batches answer with exactly the bits of batch-1 serial runs."""

    def _run(self, arch: str, width_mult: float, payloads, **register_kw):
        async def scenario():
            service = InferenceService(
                config=SchedulerConfig(
                    policy=BatchPolicy(max_batch_size=6, max_queue_delay_ms=5.0),
                    default_timeout_ms=30_000.0,
                )
            )
            entry = service.registry.register(
                "net", arch=arch, width_mult=width_mult, **register_kw
            )
            async with service:
                got = await asyncio.gather(
                    *(service.infer("net", x) for x in payloads)
                )
            return entry, got, service.scheduler.stats()

        return asyncio.run(scenario())

    def test_resnet_mixed_shapes_and_row_counts(self, rng):
        payloads = []
        for i in range(14):
            size = 32 if i % 3 else 24  # two request buckets
            k = (1, 1, 2, 3)[i % 4]
            x = rng.standard_normal((k, size, size, 3)).astype(np.float32)
            payloads.append(x[0] if (k == 1 and i % 2) else x)  # exercise squeeze
        entry, got, stats = self._run(
            "resnet18", 0.125, payloads, extra_images=(24,)
        )
        assert stats.completed == len(payloads)
        # The point of the exercise: requests actually coalesced...
        assert any(size > 1 for size in stats.batch_sizes)
        # ...and every response matches serial batch-1 execution bit-for-bit.
        for x, y in zip(payloads, got):
            rows, squeeze = entry.validate(x)
            want = entry.infer_rows(rows)
            np.testing.assert_array_equal(y, want[0] if squeeze else want)

    def test_vgg_head_bit_identical(self, rng):
        payloads = [
            rng.standard_normal((32, 32, 3)).astype(np.float32) for _ in range(8)
        ]
        entry, got, stats = self._run("vgg16", 0.125, payloads, image=32)
        assert stats.completed == len(payloads)
        for x, y in zip(payloads, got):
            rows, _ = entry.validate(x)
            np.testing.assert_array_equal(y, entry.infer_rows(rows)[0])
