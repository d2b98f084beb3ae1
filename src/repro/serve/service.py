"""Inference service: the in-process async API plus a JSON-over-HTTP face.

:class:`InferenceService` glues a :class:`~repro.serve.registry.ModelRegistry`
to a :class:`~repro.serve.scheduler.Scheduler` and exposes:

* ``await service.infer(model, x)`` — the in-process path (what the load
  generator and tests drive; zero serialisation overhead);
* ``service.stats()`` — scheduler counters + per-model registry state;
* ``await service.serve_http(host, port)`` — a dependency-free HTTP/1.1
  endpoint (:class:`~repro.serve.httpfront.JsonHttpServer`):

  ====================  =====================================================
  ``GET /healthz``      liveness: ``{"status": "ok"}``; with an SLO
                        configured, answers **503** while the error budget
                        fast-burns (see :mod:`repro.obs.slo`)
  ``GET /metrics``      Prometheus text exposition of the obs registry
                        (:mod:`repro.obs.promexport`)
  ``GET /v1/models``    registered models and their warmup/version state
  ``GET /v1/stats``     scheduler + queue counters (+ ``slo`` when set)
  ``POST /v1/infer``    ``{"model": name, "inputs": nested-list,``
                        ``"timeout_ms": optional}`` -> ``{"outputs": ...}``;
                        accepts and echoes a W3C ``traceparent`` header when
                        request telemetry is on
  ====================  =====================================================

Error mapping is the typed error surface's ``http_status``: unknown model
404, malformed payload 400, queue full 429, deadline 504, stopped 503.
The wire format is JSON nested lists — simple, inspectable, curl-able; a
binary format would only move the needle once the conv itself stops
dominating.

Shutdown is **single-flight idempotent**: however many callers race into
:meth:`stop` (outer teardown layers, ``async with`` exit, a test's
``finally``), exactly one teardown runs and every caller awaits that same
teardown — so a drain arriving during an in-flight flush can never tear
resources out from under the batches the first stop is still flushing.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..obs import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..obs.telemetry import TraceContext
from .errors import ServeError
from .httpfront import JsonHttpServer, handle_infer_request
from .registry import ModelRegistry
from .scheduler import Scheduler, SchedulerConfig

__all__ = ["InferenceService"]


class InferenceService:
    """Registry + scheduler + (optional) HTTP front end, one lifecycle."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        config: SchedulerConfig | None = None,
    ) -> None:
        self.registry = registry if registry is not None else ModelRegistry()
        self.scheduler = Scheduler(self.registry, config)
        self._http = JsonHttpServer(self._dispatch)
        self._stop_task: asyncio.Task[None] | None = None
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "InferenceService":
        await self.scheduler.start()
        self._stop_task = None
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the HTTP face and the scheduler, exactly once.

        Concurrent and repeated stops share one teardown task: the first
        caller starts it, everyone awaits it (shielded, so one impatient
        caller's cancellation cannot abort the teardown mid-flush for the
        others).  The first caller's ``drain`` choice wins.
        """
        if self._stop_task is None:
            self._stop_task = asyncio.ensure_future(self._stop_impl(drain=drain))
        await asyncio.shield(self._stop_task)

    async def _stop_impl(self, *, drain: bool) -> None:
        await self._http.stop()
        await self.scheduler.stop(drain=drain)

    async def __aenter__(self) -> "InferenceService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- in-process API ------------------------------------------------------

    async def infer(
        self,
        model: str,
        x: np.ndarray,
        *,
        timeout_ms: float | None | object = "default",
        trace: TraceContext | None = None,
    ) -> np.ndarray:
        """Submit one request through the dynamic batcher and await it."""
        return await self.scheduler.submit(model, x, timeout_ms=timeout_ms, trace=trace)

    def stats(self) -> dict[str, object]:
        out: dict[str, object] = {
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": self.scheduler.queue_depth,
            "scheduler": self.scheduler.stats().as_dict(),
            "models": self.registry.describe(),
        }
        slo = self.scheduler.slo_status()
        if slo is not None:
            out["slo"] = slo.as_dict()
        return out

    # -- HTTP front end ------------------------------------------------------

    async def serve_http(self, host: str = "127.0.0.1", port: int = 8707) -> tuple[str, int]:
        """Start the HTTP endpoint; returns the bound ``(host, port)``."""
        return await self._http.start(host, port)

    async def _dispatch(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, object] | str, dict[str, str]]:
        """Route one request; returns ``(status, payload, extra headers)``.

        A ``dict`` payload is sent as JSON, a ``str`` payload verbatim with
        the ``content-type`` named in the extra headers (the Prometheus
        exposition route).
        """
        try:
            if method == "GET" and path == "/healthz":
                return self._handle_healthz()
            if method == "GET" and path == "/metrics":
                return 200, render_prometheus(), {"content-type": PROMETHEUS_CONTENT_TYPE}
            if method == "GET" and path == "/v1/models":
                return 200, {"models": self.registry.describe()}, {}
            if method == "GET" and path == "/v1/stats":
                return 200, self.stats(), {}
            if method == "POST" and path == "/v1/infer":
                return await handle_infer_request(self.infer, headers, body)
            return 404, {"error": f"no route {method} {path}"}, {}
        except ServeError as exc:
            return exc.http_status, {"error": str(exc), "kind": type(exc).__name__}, {}
        except Exception as exc:  # noqa: B902 - last-resort 500, never a hang
            return 500, {"error": str(exc), "kind": type(exc).__name__}, {}

    def _handle_healthz(self) -> tuple[int, dict[str, object], dict[str, str]]:
        """Liveness, SLO-aware: a fast burn answers 503 so load balancers
        shed traffic while the error budget is being torched."""
        slo = self.scheduler.slo_status()
        if slo is None:
            return 200, {"status": "ok"}, {}
        if slo.fast_burn:
            return 503, {"status": "degraded", "slo": slo.as_dict()}, {}
        return 200, {"status": "ok", "slo": slo.as_dict()}, {}
