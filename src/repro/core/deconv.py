"""Transposed convolution ("deconvolution") on the fused Winograd kernels.

The paper's kernels serve "unit-stride 2D convolution and deconvolution"
(§4.1): the backward data pass *is* a unit-stride convolution of the output
gradient with the 180-degree-rotated, channel-transposed filters, with the
rotation fused into the filter transformation (§5.1).  This module exposes
that operation as a standalone layer primitive — the upsampling/decoder
building block — rather than only as a gradient.

For a forward convolution ``y = conv(x, w, p)`` with unit stride, the
transposed convolution maps a ``(N, H, W, OC)`` tensor back to the
``(N, H', W', IC)`` geometry: ``deconv(y, w, p) = correlate(y, rot180(w)^T)``
padded by ``(FH-1-p, FW-1-p)``.
"""

from __future__ import annotations

import numpy as np

from .gradients import conv2d_input_grad

__all__ = ["deconv2d_im2col_winograd"]


def deconv2d_im2col_winograd(
    y: np.ndarray,
    w: np.ndarray,
    *,
    ph: int | None = None,
    pw: int | None = None,
    output_shape: tuple[int, int] | None = None,
    alpha: int | None = None,
    engine: str = "winograd",
) -> np.ndarray:
    """Unit-stride transposed convolution, NHWC.

    Parameters
    ----------
    y:
        Input ``(N, H, W, OC)`` (e.g. a decoder feature map).
    w:
        Filters in the *forward* layout ``(OC, FH, FW, IC)``; the 180-degree
        rotation and OC/IC swap happen inside (fused into the filter
        transform, as in §5.1).
    ph, pw:
        The forward convolution's padding (default ``f // 2``); the
        transposed output grows by ``f - 1 - 2p`` per axis accordingly.
    output_shape:
        Optional explicit ``(H', W')`` — resolves the usual transposed-conv
        ambiguity; default derives it from the padding.
    alpha:
        Winograd state count forwarded to the fused kernel.
    engine:
        ``"winograd"`` or ``"gemm"``.

    Returns
    -------
    ``(N, H', W', IC)``.
    """
    if y.ndim != 4 or w.ndim != 4:
        raise ValueError(f"expected 4D y and w, got ndim {y.ndim} and {w.ndim}")
    oc, fh, fw, ic = w.shape
    if y.shape[3] != oc:
        raise ValueError(f"channel mismatch: input C={y.shape[3]}, filter OC={oc}")
    if ph is None:
        ph = fh // 2
    if pw is None:
        pw = fw // 2
    n, h, ww_, _ = y.shape
    if output_shape is None:
        out_h = h - 1 + fh - 2 * ph
        out_w = ww_ - 1 + fw - 2 * pw
    else:
        out_h, out_w = output_shape
        if (out_h + 2 * ph - fh + 1, out_w + 2 * pw - fw + 1) != (h, ww_):
            raise ValueError(
                f"output_shape {output_shape} inconsistent with input {(h, ww_)}, "
                f"filter {(fh, fw)} and padding ({ph}, {pw})"
            )
    return conv2d_input_grad(
        y, w, (n, out_h, out_w, ic), ph=ph, pw=pw, alpha=alpha, engine=engine
    )
