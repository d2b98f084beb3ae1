"""repro.serve — async dynamic-batching inference serving.

The serving layer the ROADMAP's "heavy traffic" north star asks for, built
directly on the compiled-plan runtime (:mod:`repro.runtime`): registration
warms every conv into the process-wide executable cache, and concurrent
requests are coalesced into larger NHWC batches — the request-level
analogue of the paper's tile/wave quantization argument (a batch-1
dispatch wastes the tail slots ``gpusim.blocking`` computes; coalescing
fills them).

Sixty-second tour::

    import asyncio
    import numpy as np
    from repro.serve import InferenceService, BatchPolicy, SchedulerConfig

    async def main():
        service = InferenceService(
            config=SchedulerConfig(policy=BatchPolicy(max_batch_size=8))
        )
        service.registry.register("resnet18", width_mult=0.25)  # warms caches
        async with service:
            y = await service.infer("resnet18", np.zeros((32, 32, 3), np.float32))
            print(y.shape, service.stats()["scheduler"]["mean_batch_size"])

    asyncio.run(main())

``python -m repro.serve http`` starts the JSON-over-HTTP endpoint;
``python -m repro.serve loadgen`` runs an in-process open/closed-loop
benchmark with p50/p95/p99 latency and the batch-size histogram.

Robustness contract (asserted in ``tests/test_serve_scheduler.py``): a
full queue rejects (`QueueFull`, HTTP 429), deadlines fail loudly
(`DeadlineExceeded`, 504), and a failing compiled executable degrades the
batch to the interpreted legacy path (``serve.degraded``) without losing
the response.  All of it is observable through ``serve.*`` obs counters,
histograms and trace spans.

Production telemetry (``tests/test_serve_telemetry.py``), on while
:func:`repro.obs.enable` is: requests accept and echo W3C ``traceparent``
headers, per-request span trees (admitted/queued/batched/respond, fan-in
linked to the shared batch's ``conv2d``/``segment``/stage spans) land in
the one :mod:`repro.obs` span store (read back with
:func:`repro.obs.telemetry.tree`), ``GET /metrics`` serves
the Prometheus exposition with sliding-window latency quantiles, and a
:class:`~repro.obs.slo.SLOConfig` on the scheduler turns ``/healthz`` into
a burn-rate-aware health check (503 during a fast burn).
"""

from ..obs.slo import SLOConfig, SLOStatus, SLOTracker
from .batching import Batch, BatchPolicy, BucketKey, DynamicBatcher, PendingRequest
from .errors import (
    BadRequest,
    DeadlineExceeded,
    ModelNotFound,
    QueueFull,
    ServeError,
    ServiceStopped,
)
from .httpfront import JsonHttpServer
from .loadgen import (
    LoadgenResult,
    closed_loop,
    open_loop,
    percentile,
    seeded_input_fn,
)
from .registry import MODEL_BUILDERS, ModelRegistry, RegisteredModel
from .scheduler import Scheduler, SchedulerConfig, SchedulerStats
from .service import InferenceService

__all__ = [
    "BadRequest",
    "Batch",
    "BatchPolicy",
    "BucketKey",
    "DeadlineExceeded",
    "DynamicBatcher",
    "InferenceService",
    "JsonHttpServer",
    "LoadgenResult",
    "MODEL_BUILDERS",
    "ModelNotFound",
    "ModelRegistry",
    "PendingRequest",
    "QueueFull",
    "RegisteredModel",
    "SLOConfig",
    "SLOStatus",
    "SLOTracker",
    "Scheduler",
    "SchedulerConfig",
    "SchedulerStats",
    "ServeError",
    "ServiceStopped",
    "closed_loop",
    "open_loop",
    "percentile",
    "seeded_input_fn",
]
