"""Im2col + GEMM convolution — the Implicit_Precomp_GEMM analogue.

cuDNN's ``Implicit_Precomp_GEMM`` is the paper's primary baseline: "the
fastest algorithm supporting NHWC format" (§6.1.1), as memory-efficient as
the fused Winograd kernels.  Arithmetically it is a direct convolution
expressed as a matrix multiply: ``Y(GM x GN) = B(GM x GK) @ A(GK x GN)`` with
``GM = N*OH*OW``, ``GK = IC*FH*FW``, ``GN = OC`` — exactly the Stage-1
Im2col factorisation of §4.1.  The FP32 matmul accumulation here reproduces
the error behaviour Table 3 reports for CuGEMM (relative errors growing with
``GK``, 1e-5-ish for the larger channel counts), as opposed to Winograd's
shorter summation chains.
"""

from __future__ import annotations

import numpy as np

from ..core import rowblocks
from ..nhwc.tensor import conv_output_size, im2col_nhwc

__all__ = ["conv2d_gemm"]


def conv2d_gemm(
    x: np.ndarray,
    w: np.ndarray,
    *,
    ph: int = 0,
    pw: int = 0,
    stride: int = 1,
    dtype: np.dtype | type | None = None,
    accumulation: str = "blas",
    seq_chunk: int = 1,
) -> np.ndarray:
    """GEMM convolution on NHWC activations / (OC, FH, FW, IC) filters.

    See :func:`repro.baselines.direct.conv2d_direct` for the argument
    contract; semantics are identical, only the summation structure differs.

    ``accumulation`` selects the reduction order over ``GK``:

    * ``"blas"`` — one library matmul per row block
      (:func:`repro.core.rowblocks.conv_matmul`, ``OH*OW`` rows per image,
      so no row's bits depend on the batch), the im2col rows written by one
      strided window copy straight into the blocked operand; BLAS blocks the
      sum, so rounding error is better than a strict sequential chain.
    * ``"sequential"`` — accumulate GK in order, ``seq_chunk`` columns at a
      time, rounding to the output dtype after every partial.  With the
      default ``seq_chunk=1`` this is exactly the single-thread FP32 FMA
      chain of a cuDNN Implicit_Precomp_GEMM thread, whose error Table 3
      shows growing to ~1e-5..1e-4 at large ``GK = IC*FH*FW``; the accuracy
      benches use this mode as the CuGEMM stand-in.  Larger chunks model
      vectorised accumulators (shorter chains, smaller error).
    """
    if accumulation not in ("blas", "sequential"):
        raise ValueError(f"accumulation must be 'blas' or 'sequential', got {accumulation!r}")
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"expected 4D x and w, got ndim {x.ndim} and {w.ndim}")
    if x.shape[3] != w.shape[3]:
        raise ValueError(f"channel mismatch: input IC={x.shape[3]}, filter IC={w.shape[3]}")
    if dtype is not None:
        x = x.astype(dtype, copy=False)
        w = w.astype(dtype, copy=False)
    n, ih, iw, ic = x.shape
    oc, fh, fw, _ = w.shape
    oh = conv_output_size(ih, fh, ph, stride)
    ow = conv_output_size(iw, fw, pw, stride)
    if oh < 1 or ow < 1:
        raise ValueError(f"empty output {oh}x{ow} for input {ih}x{iw}, filter {fh}x{fw}")
    a = rowblocks.fold_filters(w)  # (GK, GN)
    if accumulation == "blas":
        return rowblocks.conv_matmul(x, a, fh, fw, ph, pw, stride=stride)
    if seq_chunk < 1:
        raise ValueError(f"seq_chunk must be >= 1, got {seq_chunk}")
    cols = im2col_nhwc(x, fh, fw, ph, pw, stride)  # (GM, GK) blocks (fh, fw, ic)
    gk = cols.shape[1]
    y = np.zeros((cols.shape[0], oc), dtype=cols.dtype)
    for k0 in range(0, gk, seq_chunk):
        k1 = min(k0 + seq_chunk, gk)
        y += cols[:, k0:k1] @ a[k0:k1]
    return y.reshape(n, oh, ow, oc)
