"""Backward pass: deconvolution (dX) and filter gradient (dW).

The paper trains CNNs with Im2col-Winograd doing double duty: forward
convolution *and* "backward deconvolution", with the 180-degree filter
rotation fused into the filter transformation (§5.1).  In gradient terms,
for a unit-stride forward convolution ``Y = X * W`` with padding
``(ph, pw)``::

    dX = dY (*) rot180(W)^T      padded by (FH-1-ph, FW-1-pw)
    dW[oc,fh,fw,ic] = sum_{b,oh,ow} dY[b,oh,ow,oc] * Xpad[b,oh+fh,ow+fw,ic]

``dX`` is itself a unit-stride NHWC convolution, so it runs on the same
fused Winograd kernels — that is the paper's "backward kernels have similar
performance to the forward kernels" claim, and it is why this module routes
``conv2d_input_grad`` through the compiled-plan runtime
(:func:`repro.runtime.convolve`) by default.  ``dW`` is a GEMM over the im2col matrix (cuDNN does the same;
the paper's Winograd kernels cover forward + data-grad only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..nhwc.layouts import rotate_filter_180
from ..nhwc.tensor import im2col_nhwc

if TYPE_CHECKING:  # the runtime imports core at load
    from ..runtime import ConvExecutable, FilterBundle

__all__ = ["backward_filter_for_input_grad", "conv2d_input_grad", "conv2d_filter_grad"]


def backward_filter_for_input_grad(w: np.ndarray) -> np.ndarray:
    """Fused 180-degree rotation + channel transposition for the data grad.

    Input ``(OC, FH, FW, IC)``; output ``(IC, FH, FW, OC)`` with both spatial
    axes reversed, ready to be fed to the forward kernels with ``dY`` as the
    ifms.  The result is a view: the rotation is folded into the copy the
    filter transform (or the GEMM fold) makes anyway, as the paper folds it
    into filter-transformation (§5.1), so no rotated copy is materialised.
    """
    if w.ndim != 4:
        raise ValueError(f"expected 4D filter, got ndim={w.ndim}")
    return rotate_filter_180(w).transpose(3, 1, 2, 0)


def conv2d_input_grad(
    dy: np.ndarray,
    w: np.ndarray,
    input_shape: tuple[int, int, int, int],
    *,
    ph: int,
    pw: int,
    alpha: int | None = None,
    engine: str = "winograd",
    executable: ConvExecutable | None = None,
    bundle: FilterBundle | None = None,
) -> np.ndarray:
    """Gradient w.r.t. the ifms of a unit-stride forward convolution.

    Parameters
    ----------
    dy:
        Output gradient ``(N, OH, OW, OC)``.
    w:
        Forward filters ``(OC, FH, FW, IC)``.
    input_shape:
        Shape of the forward ifms ``(N, IH, IW, IC)`` (needed because several
        (IH, ph) pairs share an OH).
    ph, pw:
        Forward padding.
    alpha:
        Winograd state count forwarded to the fused kernel.
    engine:
        ``"winograd"`` (the paper's backward deconvolution through the
        runtime) or ``"gemm"`` (:func:`~repro.baselines.gemm.conv2d_gemm`
        over the same rotated, transposed filters ``(IC, FH, FW, OC)``) —
        both exact up to FP rounding.
    executable, bundle:
        Winograd only: a caller's held executable and operands of the
        rotated ``w``, passed on to :func:`repro.runtime.convolve`.
    """
    from ..baselines.gemm import conv2d_gemm  # local import: avoid cycle at module load

    n, ih, iw, ic = input_shape
    oc, fh, fw, _ = w.shape
    if dy.shape != (n, ih + 2 * ph - fh + 1, iw + 2 * pw - fw + 1, oc):
        raise ValueError(
            f"dy shape {dy.shape} inconsistent with input {input_shape}, "
            f"filter {(oc, fh, fw, ic)}, padding ({ph}, {pw})"
        )
    wb = backward_filter_for_input_grad(w)  # (IC, FH, FW, OC) view
    bp_h, bp_w = fh - 1 - ph, fw - 1 - pw
    if engine == "winograd":
        # Compiled-plan runtime: the backward-deconvolution signature (dy as
        # ifms, flipped filters) gets its own cached executable.
        from ..runtime import convolve  # lazy: runtime imports core at load

        return convolve(
            dy, wb, ph=bp_h, pw=bp_w, alpha=alpha, dtype=dy.dtype,
            executable=executable, bundle=bundle,
        )
    if engine == "gemm":
        return conv2d_gemm(dy, wb, ph=bp_h, pw=bp_w)
    raise ValueError(f"unknown engine {engine!r}")


def conv2d_filter_grad(
    x: np.ndarray, dy: np.ndarray, *, fh: int, fw: int, ph: int, pw: int
) -> np.ndarray:
    """Gradient w.r.t. the filters of a unit-stride forward convolution.

    Returns ``(OC, FH, FW, IC)`` matching the forward filter layout.
    """
    n, ih, iw, ic = x.shape
    _, oh, ow, oc = dy.shape
    cols = im2col_nhwc(x, fh, fw, ph, pw)  # (N*OH*OW, FH*FW*IC)
    g = dy.reshape(n * oh * ow, oc).T @ cols  # (OC, FH*FW*IC)
    return g.reshape(oc, fh, fw, ic)
