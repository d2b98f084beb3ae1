"""Inference-optimised convolution: pre-transformed filters.

§6.1.2: "To further improve speed, filters can be pre-transposed before
using CNNs for evaluation or prediction."  In this NumPy implementation the
analogous win is pre-computing the *filter transform* ``U = G w`` (and the
boundary plan) once, instead of per call — exactly what an inference engine
does when it freezes a model.

:class:`PlannedConv2D` binds filters + geometry at construction:

* plans the §5.5 boundary segmentation for the given output width,
* pre-computes ``U`` per Winograd segment kernel (and the folded GEMM
  operand for the tail),
* then applies the convolution to any batch of matching ifms.

Execution goes through :func:`repro.runtime.convolve` with the frozen
operands passed as a pre-resolved
:class:`~repro.runtime.executable.FilterBundle`: the per-``(IH, IW)``
executables come from the shared process-wide cache, repeated inference
never compares or re-transforms the weights, and
:func:`~repro.runtime.force_legacy` applies as to any other call.  A frozen
:class:`repro.dlframe.layers.Conv2D` holds its bundles the same way.

Numerics are identical to :func:`repro.core.fused.conv2d_im2col_winograd`
(same transforms, same accumulation order) — asserted in the test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..nhwc.tensor import conv_output_size
from .boundary import Segment, plan_width_segments
from .fused import DEFAULT_BLOCK_IC
from .kernels import default_alpha_for_width, get_kernel

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.executable import FilterBundle

__all__ = ["PlannedConv2D"]


class PlannedConv2D:
    """A convolution with frozen filters and pre-computed transforms.

    Parameters
    ----------
    w:
        Filters ``(OC, FH, FW, IC)``; copied and transformed at construction.
    iw:
        Input width the plan is built for (the boundary segmentation depends
        on ``OW``; inputs of other widths raise).
    ph, pw:
        Padding (defaults ``f // 2``).
    alpha, variant:
        Kernel selection, as in the functional API.
    dtype:
        Computation dtype.
    block_ic:
        Channel block depth of the accumulation loop, honoured bit-for-bit
        by the compiled runtime (same default and same gemm order as
        :func:`~repro.core.fused.conv2d_im2col_winograd`).
    """

    def __init__(
        self,
        w: np.ndarray,
        iw: int,
        *,
        ph: int | None = None,
        pw: int | None = None,
        alpha: int | None = None,
        variant: str = "base",
        dtype: np.dtype | type = np.float32,
        block_ic: int | None = DEFAULT_BLOCK_IC,
    ) -> None:
        from ..runtime.executable import build_filter_bundle  # lazy: import cycle

        if w.ndim != 4:
            raise ValueError(f"expected 4D filters, got ndim {w.ndim}")
        # A real copy: the bundle and the legacy path (force_legacy) must
        # both keep seeing the filters as they were at construction.
        self.w = np.array(w, dtype=dtype)
        oc, fh, fw, ic = self.w.shape
        self.ph = fh // 2 if ph is None else ph
        self.pw = fw // 2 if pw is None else pw
        if not 0 <= self.pw < fw:
            raise ValueError(f"pw={self.pw} must satisfy 0 <= pw < FW={fw}")
        self.iw = iw
        self.ow = conv_output_size(iw, fw, self.pw)
        if self.ow < 1:
            raise ValueError(f"empty output width for iw={iw}, fw={fw}, pw={self.pw}")
        self.block_ic = block_ic
        if alpha is None:
            alpha = default_alpha_for_width(fw)
        self.alpha = alpha
        self.variant = variant
        primary = get_kernel(alpha, fw, variant)
        self.segments: list[Segment] = plan_width_segments(self.ow, fw, primary=primary)

        # Pre-transform filters per distinct Winograd scheme in the plan
        # (§6.1.2), packaged as the runtime's FilterBundle so execution hits
        # the compiled path with zero per-call filter work.
        schemes = [
            (seg.kernel.spec.n, seg.kernel.spec.r)  # type: ignore[union-attr]
            for seg in self.segments
            if not seg.is_gemm
        ]
        self._bundle: "FilterBundle" = build_filter_bundle(self.w, schemes, self.w.dtype)
        self._u = self._bundle.u

    @property
    def transformed_filter_bytes(self) -> int:
        """Memory held by the pre-computed transforms (the §6.1.2 trade)."""
        return self._bundle.transformed_filter_bytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Convolve a batch ``(N, IH, iw, IC)`` with the frozen filters."""
        from ..runtime import convolve  # lazy: import cycle

        ic = self.w.shape[3]
        if x.ndim != 4:
            raise ValueError(f"expected 4D input, got ndim {x.ndim}")
        if x.shape[2] != self.iw:
            raise ValueError(f"input width {x.shape[2]} != planned width {self.iw}")
        if x.shape[3] != ic:
            raise ValueError(f"channel mismatch: input {x.shape[3]}, filter {ic}")
        # Heights are free: only the width is baked into the plan.  Each
        # distinct IH resolves to its own executable in the shared cache.
        return convolve(
            x, self.w, ph=self.ph, pw=self.pw, alpha=self.alpha, variant=self.variant,
            dtype=self.w.dtype, block_ic=self.block_ic, bundle=self._bundle,
        )
