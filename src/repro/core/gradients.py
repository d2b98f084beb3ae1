"""Backward pass: deconvolution (dX) and filter gradient (dW).

The paper trains CNNs with Im2col-Winograd doing double duty: forward
convolution *and* "backward deconvolution", with the 180-degree filter
rotation fused into the filter transformation (§5.1).  In gradient terms,
for a unit-stride forward convolution ``Y = X * W`` with padding
``(ph, pw)``::

    dX = dY (*) rot180(W)^T      padded by (FH-1-ph, FW-1-pw)
    dW[oc,fh,fw,ic] = sum_{b,oh,ow} dY[b,oh,ow,oc] * Xpad[b,oh+fh,ow+fw,ic]

A unit-stride ``dX`` is itself a unit-stride NHWC convolution, so
``conv2d_input_grad`` runs it as one :func:`repro.runtime.convolve` call on
the rotated filters, with the caller's algorithm: the fused Winograd
kernels (the paper's "backward kernels have similar performance to the
forward kernels" claim) or the runtime's im2col GEMM.  A strided ``dX`` is
the adjoint of the forward's im2col GEMM: ``dY`` times the transposed
folded filters, scattered back by :func:`~repro.nhwc.tensor.col2im_nhwc`
("other algorithms handle the non-unit-stride cases", §5.7).  ``dW`` is a
GEMM over the strided im2col matrix at every stride (cuDNN does the same;
the paper's Winograd kernels cover forward + data-grad only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..nhwc.layouts import rotate_filter_180
from ..nhwc.tensor import col2im_nhwc, conv_output_size, im2col_nhwc
from .rowblocks import fold_filters

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
    stride: int = 1,
    alpha: int | None = None,
    engine: str = "winograd",
    executable: ConvExecutable | None = None,
    bundle: FilterBundle | None = None,
) -> np.ndarray:
    """Gradient w.r.t. the ifms of a forward convolution.

    Parameters
    ----------
    dy:
        Output gradient ``(N, OH, OW, OC)``.
    w:
        Forward filters ``(OC, FH, FW, IC)``.
    input_shape:
        Shape of the forward ifms ``(N, IH, IW, IC)`` (needed because several
        (IH, ph) pairs share an OH).
    ph, pw, stride:
        Forward padding and stride.
    alpha:
        Winograd state count forwarded to the fused kernel.
    engine:
        The unit-stride data grad's algorithm: ``"winograd"`` (the paper's
        backward deconvolution) or ``"gemm"`` (the runtime's im2col GEMM),
        both run by :func:`repro.runtime.convolve` over the rotated,
        transposed filters ``(IC, FH, FW, OC)`` and exact up to FP
        rounding.  A strided data grad is always the col2im GEMM.
    executable, bundle:
        Unit stride only: a caller's held executable and operands of the
        rotated ``w`` for ``engine``, passed on to
        :func:`repro.runtime.convolve`.
    """
    if engine not in ("winograd", "gemm"):
        raise ValueError(f"unknown engine {engine!r}")
    n, ih, iw, ic = input_shape
    oc, fh, fw, _ = w.shape
    oh, ow = conv_output_size(ih, fh, ph, stride), conv_output_size(iw, fw, pw, stride)
    if dy.shape != (n, oh, ow, oc):
        raise ValueError(
            f"dy shape {dy.shape} inconsistent with input {input_shape}, "
            f"filter {(oc, fh, fw, ic)}, padding ({ph}, {pw}), stride {stride}"
        )
    if stride != 1:
        # The adjoint of the forward's im2col GEMM: (GM, OC) @ (OC, GK),
        # scattered back onto the input.
        cols = dy.reshape(n * oh * ow, oc) @ fold_filters(w).T
        return col2im_nhwc(cols, input_shape, fh, fw, ph, pw, stride)
    from ..runtime import convolve  # lazy: runtime imports core at load

    # The backward-deconvolution signature (dy as ifms, flipped filters)
    # gets its own executable.
    return convolve(
        dy, backward_filter_for_input_grad(w), ph=fh - 1 - ph, pw=fw - 1 - pw, alpha=alpha,
        dtype=dy.dtype, algorithm=engine, executable=executable, bundle=bundle,
    )


def conv2d_filter_grad(
    x: np.ndarray, dy: np.ndarray, *, fh: int, fw: int, ph: int, pw: int, stride: int = 1
) -> np.ndarray:
    """Gradient w.r.t. the filters of a forward convolution.

    Returns ``(OC, FH, FW, IC)`` matching the forward filter layout.
    """
    n, ih, iw, ic = x.shape
    _, oh, ow, oc = dy.shape
    cols = im2col_nhwc(x, fh, fw, ph, pw, stride)  # (N*OH*OW, FH*FW*IC)
    g = dy.reshape(n * oh * ow, oc).T @ cols  # (OC, FH*FW*IC)
    return g.reshape(oc, fh, fw, ic)
