"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xC0FFEE)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Max |got - want| normalised by the magnitude scale of ``want``."""
    scale = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got.astype(np.float64) - want.astype(np.float64)).max()) / scale


#: FP32 agreement tolerances by Winograd state count: alpha=16 transform
#: matrices have entry-magnitude disparity ~1e8, so its FP32 error floor is
#: ~1e-4 in max-relative terms (Table 3 reports ~1e-5 *average*).
TOL_BY_ALPHA = {None: 2e-5, 4: 2e-5, 8: 5e-5, 16: 2e-3}


def admitted(service, n: int) -> asyncio.Event:
    """An ``asyncio.Event`` set once ``n`` requests have entered ``service``'s queue.

    Wraps the scheduler's batcher ``add`` on this instance, so a test can
    wait for admission explicitly instead of yielding to the event loop and
    hoping the submitting tasks ran.
    """
    batcher = service.scheduler._batcher
    add = batcher.add
    event = asyncio.Event()
    count = 0

    def counting_add(req):
        nonlocal count
        ready = add(req)
        count += 1
        if count >= n:
            event.set()
        return ready

    batcher.add = counting_add
    return event


def seeded_inputs(entry, n: int, *, seed: int = 0) -> list[np.ndarray]:
    """``n`` request payloads for a registered model; payload ``i`` is seeded
    from ``(seed, i)``, so two runs see the same payloads in the same order."""
    h, w, c = entry.input_shapes[0]
    return [
        np.random.default_rng((seed, i)).standard_normal((h, w, c)).astype(entry.dtype)
        for i in range(n)
    ]


async def infer_all(service, model: str, xs, *, concurrency: int, **kw) -> list:
    """Send every payload of ``xs`` to ``service`` with at most
    ``concurrency`` requests in flight.

    Returns each request's output, or the exception it raised, in ``xs``
    order; ``kw`` (``timeout_ms``) goes to every ``service.infer`` call.
    """
    gate = asyncio.Semaphore(concurrency)

    async def one(x):
        async with gate:
            return await service.infer(model, x, **kw)

    return await asyncio.gather(*(one(x) for x in xs), return_exceptions=True)
