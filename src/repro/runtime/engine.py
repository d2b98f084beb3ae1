"""Runtime entry point and execution configuration.

:func:`convolve` is the compiled-execution twin of
:func:`repro.core.fused.conv2d_im2col_winograd`: same operands, same
defaults, same error surface, bit-identical results — but the signature is
resolved through the process-wide executable cache, so planning, transform
matrices, gather descriptors and (per weight version) the filter transforms
are all reused across calls.

Each call runs its segments' chunks one after another on the calling
thread; the parallelism is BLAS's, inside every transform and contraction
GEMM.  ``workspace_bytes`` (per call, or process-wide through
:func:`configure`) sizes the chunks each segment streams through; it only
changes dispatch, never arithmetic — results stay bit-identical.

:func:`force_legacy` is the reference-path scope: a thread-local scope
under which :func:`convolve` bypasses the compiled executable entirely and
runs the interpreted reference path
(``conv2d_im2col_winograd(..., legacy=True)``), which shares none of the
compiled state.  Oracles use it to produce the bits the compiled path must
match: the bit-identity tests, and perfbench's ``vgg16-b8`` reference
forwards.  Those are the only two paths: outside the scope every signature
runs its cached executable.

``convolve(..., algorithm="gemm")`` runs the same conv as one row-blocked
im2col GEMM instead (the per-layer pick of
:func:`~repro.runtime.signature.conv_engine`), through the same cache,
bundles and reference-path scope; its legacy path is
:func:`repro.baselines.gemm.conv2d_gemm`.  The default stays the paper's
``Gamma_alpha``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

import numpy as np

from ..baselines.gemm import conv2d_gemm
from ..obs import counter_add, span
from .cache import get_executable
from .executable import (
    DEFAULT_WORKSPACE_BYTES,
    ConvExecutable,
    FilterBundle,
    check_workspace_bytes,
    set_workspace_bytes,
)
from .signature import ConvSignature

__all__ = [
    "DEFAULT_WORKSPACE_BYTES",
    "configure",
    "convolve",
    "force_legacy",
    "legacy_forced",
]

#: Thread-local reference-path flag: set by :func:`force_legacy`, honoured
#: by :func:`convolve`.  Thread-local (not process-wide) so an oracle
#: computed on one thread does not reroute calls other threads make.
_DEGRADED = threading.local()


def legacy_forced() -> bool:
    """Whether the calling thread is inside a :func:`force_legacy` scope."""
    return getattr(_DEGRADED, "on", False)


@contextlib.contextmanager
def force_legacy() -> Iterator[None]:
    """Route this thread's :func:`convolve` calls through the legacy path.

    The interpreted reference implementation shares no compiled state with
    the runtime (no executable cache, no filter-transform cache, no
    workspace), which is what makes it an independent oracle for the
    compiled path.  Frozen strided convs do not go through
    :func:`convolve` and so ignore the scope.  Nestable and
    exception-safe; counts ``runtime.degraded.calls`` per bypassed call.
    """
    prev = getattr(_DEGRADED, "on", False)
    _DEGRADED.on = True
    try:
        yield
    finally:
        _DEGRADED.on = prev


def configure(*, workspace_bytes: int | None = None) -> None:
    """Adjust the process-wide runtime settings.

    ``workspace_bytes`` sets the chunk budget of every call that names
    none (an integer >= 1).
    """
    if workspace_bytes is not None:
        set_workspace_bytes(workspace_bytes)


def convolve(
    x: np.ndarray,
    w: np.ndarray,
    *,
    ph: int | None = None,
    pw: int | None = None,
    alpha: int | None = None,
    variant: str = "base",
    dtype: np.dtype | type | str = np.float32,
    version: object = None,
    bundle: FilterBundle | None = None,
    workspace_bytes: int | None = None,
    algorithm: str = "winograd",
    executable: ConvExecutable | None = None,
) -> np.ndarray:
    """Unit-stride conv through the compiled-plan runtime.

    Drop-in equivalent of
    :func:`repro.core.fused.conv2d_im2col_winograd` (bit-identical
    outputs, identical validation errors): both accumulate the full
    ``(fh, ic)`` depth in one GEMM per ``alpha`` state.
    ``version`` optionally names the weight version to key the
    filter-transform cache by instead of comparing the weights, and
    ``bundle`` supplies pre-resolved filter operands and ``executable``
    the executable of this call's signature (frozen inference: no
    signature resolution, no cache lookup).  ``workspace_bytes`` is this
    call's chunk budget (default: the :func:`configure` value).
    ``algorithm="gemm"`` runs the conv as one row-blocked im2col GEMM
    (bit-identical to ``conv2d_gemm``; ``alpha`` and ``variant`` do not
    apply).

    Inside a :func:`force_legacy` scope the call bypasses the compiled
    executable and runs the interpreted reference path instead (same bits,
    none of the cached state).
    """
    if legacy_forced():
        if workspace_bytes is not None:
            check_workspace_bytes(workspace_bytes)
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
                    legacy=True,
                )
        return y
    exe = executable
    if exe is None:
        sig = ConvSignature.for_operands(
            x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype,
            algorithm=algorithm,
        )
        exe = get_executable(sig)
    return exe(x, w, version=version, bundle=bundle, workspace_bytes=workspace_bytes)
