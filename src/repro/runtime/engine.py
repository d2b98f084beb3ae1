"""Runtime entry point and execution configuration.

:func:`convolve` is the compiled-execution twin of
:func:`repro.core.fused.conv2d_im2col_winograd`: same operands, same
defaults, same error surface, bit-identical results — but the signature is
resolved through the process-wide executable cache, so planning, transform
matrices, gather descriptors and (per weight version) the filter transforms
are all reused across calls.

:class:`ExecutionConfig` carries the execution knobs: ``threads`` enables
the opt-in thread pool over (segment, batch-chunk) tasks for the training
path, ``workspace_bytes`` sizes the chunks each segment streams through.
Both only change dispatch, never arithmetic — results stay bit-identical.

:func:`force_legacy` is the serving layer's graceful-degradation hatch: a
thread-local scope under which :func:`convolve` bypasses the compiled
executable entirely and runs the interpreted reference path
(``conv2d_im2col_winograd(..., legacy=True)``).  A server that catches an
exception out of a compiled executable can replay the batch under this
scope and still answer the request (bit-identical results, just slower).
Those are the only two paths: outside the scope every signature runs its
cached executable.

``convolve(..., algorithm="gemm")`` runs the same conv as one row-blocked
im2col GEMM instead (the per-layer pick of
:func:`~repro.runtime.signature.conv_engine`), through the same cache,
bundles and degradation hatch; its legacy path is
:func:`repro.baselines.gemm.conv2d_gemm`.  The default stays the paper's
``Gamma_alpha``.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..baselines.gemm import conv2d_gemm
from ..core.fused import DEFAULT_BLOCK_IC
from ..obs import counter_add, span
from .cache import get_executable, global_cache
from .executable import ConvExecutable, FilterBundle
from .signature import ConvSignature

__all__ = [
    "ExecutionConfig",
    "configure",
    "convolve",
    "default_config",
    "force_legacy",
    "legacy_forced",
]

#: Default per-chunk budget for a segment's intermediates (gathered region,
#: V, M, output transform), as estimated per image by
#: ``ConvExecutable.per_row_workspace_bytes``.  Each segment streams through
#: chunks of whole row blocks that fit it, never less than one block, in a
#: per-thread workspace reused across chunks and calls; so the budget bounds
#: what each thread retains, not only what one call touches.  2 MiB was
#: chosen by a sweep (DESIGN.md, "Streaming chunks and the per-thread
#: workspace").
DEFAULT_WORKSPACE_BYTES = 2 * 1024 * 1024


@dataclass
class ExecutionConfig:
    """Dispatch knobs for compiled execution (arithmetic-neutral).

    ``threads`` (0 or 1: serial) sizes the opt-in worker pool over
    (segment, batch-chunk) tasks.  ``workspace_bytes`` is the per-chunk
    budget: each segment runs in chunks of whole row blocks whose estimated
    intermediates fit it (one block at least).  Every thread that runs a
    chunk, the caller's or a pool worker, keeps one workspace grown to the
    largest chunk it has run.
    """

    threads: int = 0
    workspace_bytes: int = DEFAULT_WORKSPACE_BYTES
    _pool: ThreadPoolExecutor | None = field(default=None, repr=False, compare=False)
    _pool_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def pool(self) -> ThreadPoolExecutor:
        """Lazily-built shared pool of ``threads`` workers."""
        if self.threads < 2:
            raise ValueError("pool() requires threads >= 2")
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads, thread_name_prefix="repro-runtime"
                )
            return self._pool

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker pool.  Idempotent and teardown-safe.

        Server teardown paths may call this more than once (scheduler stop
        plus an ``atexit``/context-manager layer), possibly while another
        thread is mid-dispatch.  A second call is a no-op; a dispatcher that
        raced the shutdown and holds the now-closed pool falls back to
        serial execution (see ``ConvExecutable.__call__``) rather than
        failing the convolution.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # Outside the lock: wait=True joins workers, and a worker (or a
            # racing dispatcher) calling pool()/shutdown() again must not
            # deadlock against us.
            pool.shutdown(wait=wait)


_DEFAULT = ExecutionConfig()

#: Thread-local degradation flag: set by :func:`force_legacy`, honoured by
#: :func:`convolve`.  Thread-local (not process-wide) so a server degrading
#: one batch does not slow the batches other workers are executing.
_DEGRADED = threading.local()


def default_config() -> ExecutionConfig:
    """The process-wide execution configuration."""
    return _DEFAULT


def legacy_forced() -> bool:
    """Whether the calling thread is inside a :func:`force_legacy` scope."""
    return getattr(_DEGRADED, "on", False)


@contextlib.contextmanager
def force_legacy() -> Iterator[None]:
    """Route this thread's :func:`convolve` calls through the legacy path.

    The interpreted reference implementation shares no compiled state with
    the runtime (no executable cache, no filter-transform cache, no pooled
    dispatch), so it stays available even when a compiled executable is
    failing — the serving layer's graceful-degradation contract.  Nestable
    and exception-safe; counts ``runtime.degraded.calls`` per bypassed call.
    """
    prev = getattr(_DEGRADED, "on", False)
    _DEGRADED.on = True
    try:
        yield
    finally:
        _DEGRADED.on = prev


def configure(
    *,
    threads: int | None = None,
    workspace_bytes: int | None = None,
    cache_capacity: int | None = None,
) -> ExecutionConfig:
    """Adjust the process-wide runtime configuration in place.

    ``threads=0`` (the default) keeps dispatch serial; ``threads=k >= 2``
    enables the pooled dispatch over (segment, batch-chunk) tasks.
    ``cache_capacity`` resizes the executable LRU.
    Returns the active config for inspection.
    """
    if threads is not None:
        if threads < 0:
            raise ValueError(f"threads must be >= 0, got {threads}")
        if threads != _DEFAULT.threads:
            _DEFAULT.shutdown()
            _DEFAULT.threads = threads
    if workspace_bytes is not None:
        if workspace_bytes < 1:
            raise ValueError(f"workspace_bytes must be >= 1, got {workspace_bytes}")
        _DEFAULT.workspace_bytes = workspace_bytes
    if cache_capacity is not None:
        global_cache().resize(cache_capacity)
    return _DEFAULT


def convolve(
    x: np.ndarray,
    w: np.ndarray,
    *,
    ph: int | None = None,
    pw: int | None = None,
    alpha: int | None = None,
    variant: str = "base",
    dtype: np.dtype | type | str = np.float32,
    block_ic: int | None = DEFAULT_BLOCK_IC,
    version: object = None,
    bundle: FilterBundle | None = None,
    config: ExecutionConfig | None = None,
    algorithm: str = "winograd",
    executable: ConvExecutable | None = None,
) -> np.ndarray:
    """Unit-stride conv through the compiled-plan runtime.

    Drop-in equivalent of
    :func:`repro.core.fused.conv2d_im2col_winograd` (bit-identical outputs
    at the same ``block_ic``, identical validation errors).  ``block_ic``
    is honoured exactly as in the interpreted path, whose default it
    shares: ``None`` (identical to ``block_ic >= IC``) accumulates the full
    ``(fh, ic)`` depth in one GEMM per ``alpha`` state, the fastest
    setting; an integer replays the channel-blocked loop.
    ``version`` optionally names the weight version to key the
    filter-transform cache by instead of comparing the weights, and
    ``bundle`` supplies pre-resolved filter operands and ``executable``
    the executable of this call's signature (frozen inference: no
    signature resolution, no cache lookup).
    ``algorithm="gemm"`` runs the conv as one row-blocked im2col GEMM
    (bit-identical to ``conv2d_gemm``; ``alpha``, ``variant`` and
    ``block_ic`` do not apply).

    Inside a :func:`force_legacy` scope the call bypasses the compiled
    executable and runs the interpreted reference path instead (same bits,
    none of the cached state) — the degradation hatch the serving layer
    uses when a compiled executable raises.
    """
    if legacy_forced():
        from ..core.fused import conv2d_im2col_winograd  # lazy: import cycle

        counter_add("runtime.degraded.calls")
        with span("degraded", path="legacy"):
            if algorithm == "gemm":
                _, fh, fw, _ = w.shape
                y = conv2d_gemm(
                    x, w, ph=fh // 2 if ph is None else ph,
                    pw=fw // 2 if pw is None else pw, dtype=np.dtype(dtype),
                )
            else:
                y = conv2d_im2col_winograd(
                    x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype,
                    block_ic=block_ic, legacy=True,
                )
        return y
    exe = executable
    if exe is None:
        sig = ConvSignature.for_operands(
            x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype,
            algorithm=algorithm,
        )
        exe = get_executable(sig)
    return exe(x, w, version=version, bundle=bundle, config=config, block_ic=block_ic)
