"""ND Im2col-Winograd: 1D and 3D convolutions (§4.2).

The paper: "Im2col-Winograd can be applied to ND convolution, by expanding
Stage1 Im2col to ND, while remaining Stage2 unchanged."  Stage 2 only ever
sees 1D tiles along the innermost spatial (width) axis; the outer filter
offsets — ``fh`` for 2D, ``(fd, fh)`` for 3D — just add terms to the
transform-domain accumulator.  This module provides:

* :func:`conv1d_im2col_winograd` — channels-last 1D convolution
  ``(N, W, C)``; a degenerate 2D call (FH = 1).
* :func:`conv3d_im2col_winograd` — channels-last 3D convolution
  ``(N, D, H, W, C)`` with ``(OC, FD, FH, FW, IC)`` filters, fused exactly
  like the 2D kernel but accumulating over ``FD x FH x ceil(IC/BK)``
  iterations.

Both share the §5.5 boundary segmentation along the width axis and are
validated against direct FP64 references in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..nhwc.tensor import conv_output_size
from .boundary import plan_width_segments
from .fused import DEFAULT_BLOCK_IC, conv2d_im2col_winograd
from .kernels import KernelId, default_alpha_for_width, get_kernel
from .transforms import winograd_matrices

__all__ = ["conv1d_im2col_winograd", "conv3d_im2col_winograd"]


def conv1d_im2col_winograd(
    x: np.ndarray,
    w: np.ndarray,
    *,
    pw: int | None = None,
    alpha: int | None = None,
    dtype: np.dtype | type = np.float32,
) -> np.ndarray:
    """Unit-stride 1D convolution on channels-last sequences.

    Parameters
    ----------
    x:
        Input ``(N, W, C)``.
    w:
        Filters ``(OC, FW, IC)``.
    pw:
        Zero padding (default ``FW // 2``).
    alpha:
        Winograd state count (default per filter width).

    Returns
    -------
    ``(N, OW, OC)``.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ValueError(f"expected 3D x and w, got ndim {x.ndim} and {w.ndim}")
    y = conv2d_im2col_winograd(
        x[:, None, :, :], w[:, None, :, :], ph=0, pw=pw, alpha=alpha, dtype=dtype
    )
    return y[:, 0, :, :]


def conv3d_im2col_winograd(
    x: np.ndarray,
    w: np.ndarray,
    *,
    pd: int | None = None,
    ph: int | None = None,
    pw: int | None = None,
    alpha: int | None = None,
    dtype: np.dtype | type = np.float32,
    block_ic: int | None = DEFAULT_BLOCK_IC,
) -> np.ndarray:
    """Unit-stride 3D convolution, channels-last, fused Im2col-Winograd.

    Parameters
    ----------
    x:
        Input ``(N, D, H, W, C)``.
    w:
        Filters ``(OC, FD, FH, FW, IC)``.
    pd, ph, pw:
        Zero padding per spatial axis (defaults ``f // 2``).
    alpha:
        Winograd state count for the width axis.
    block_ic:
        Channel block depth of the accumulation loop; ``None`` is one block
        of the full ``IC``.

    Returns
    -------
    ``(N, OD, OH, OW, OC)``.
    """
    if x.ndim != 5 or w.ndim != 5:
        raise ValueError(f"expected 5D x and w, got ndim {x.ndim} and {w.ndim}")
    if x.shape[4] != w.shape[4]:
        raise ValueError(f"channel mismatch: input IC={x.shape[4]}, filter IC={w.shape[4]}")
    oc, fd, fh, fw, ic = w.shape
    if pd is None:
        pd = fd // 2
    if ph is None:
        ph = fh // 2
    if pw is None:
        pw = fw // 2
    if not (0 <= pw < fw):
        raise ValueError(f"pw={pw} must satisfy 0 <= pw < FW={fw}")
    if alpha is None:
        alpha = default_alpha_for_width(fw)
    primary = get_kernel(alpha, fw, "base")

    x = np.asarray(x, dtype=dtype)
    w = np.asarray(w, dtype=dtype)
    batch, idp, ihp, iwp, _ = x.shape
    od = conv_output_size(idp, fd, pd)
    oh = conv_output_size(ihp, fh, ph)
    ow = conv_output_size(iwp, fw, pw)
    if od < 1 or oh < 1 or ow < 1:
        raise ValueError(f"empty output {od}x{oh}x{ow}")

    # Pad D, H and W explicitly (the 2D kernel handles W implicitly; here a
    # single padded buffer keeps the triple gather simple).
    xp = np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw), (0, 0)))

    y = np.empty((batch, od, oh, ow, oc), dtype=dtype)
    for seg in plan_width_segments(ow, fw, primary=primary):
        if seg.is_gemm:
            y[..., seg.start : seg.start + seg.width, :] = _gemm_segment_3d(
                xp, w, seg.start, seg.width, od, oh
            )
        else:
            y[..., seg.start : seg.start + seg.width, :] = _winograd_segment_3d(
                xp, w, seg.kernel, seg.start, seg.width, od, oh,
                ic if block_ic is None else block_ic,
            )
    return y


def _winograd_segment_3d(
    xp: np.ndarray,
    w: np.ndarray,
    kernel: KernelId,
    start: int,
    width: int,
    od: int,
    oh: int,
    block_ic: int,
) -> np.ndarray:
    """Stage 2 over one width segment, accumulating over (fd, fh, ic)."""
    spec = kernel.spec
    n_out, r, alpha = spec.n, spec.r, spec.alpha
    num_tiles = width // n_out
    batch = xp.shape[0]
    oc, fd, fh, _, ic = w.shape
    mats = winograd_matrices(n_out, r, dtype=xp.dtype.name)

    # U[fd, fh, k, ic, oc] = G @ w along the width axis.
    u_all = np.ascontiguousarray(
        np.einsum("kp,odhpi->dhkio", mats.G, w, optimize=True)
    )

    m = np.zeros((alpha, batch * od * oh * num_tiles, oc), dtype=xp.dtype)
    sn, sd, sh, sw, sc = xp.strides
    for d in range(fd):
        for h in range(fh):
            # Tiles (N, OD, OH, T, alpha, IC) for this (fd, fh) offset.
            base = xp[:, d : d + od, h : h + oh, start:, :]
            tiles = np.lib.stride_tricks.as_strided(
                base,
                shape=(batch, od, oh, num_tiles, alpha, ic),
                strides=(sn, sd, sh, sw * n_out, sw, sc),
                writeable=False,
            )
            for c0 in range(0, ic, block_ic):
                c1 = min(c0 + block_ic, ic)
                blk = np.ascontiguousarray(tiles[..., c0:c1])
                v = np.einsum("ka,ndhtac->kndhtc", mats.DT, blk, optimize=True)
                v = v.reshape(alpha, batch * od * oh * num_tiles, c1 - c0)
                m += v @ u_all[d, h, :, c0:c1, :]
    y = np.einsum("jk,kmo->mjo", mats.AT, m, optimize=True)
    return y.reshape(batch, od, oh, num_tiles * n_out, oc)


def _gemm_segment_3d(
    xp: np.ndarray, w: np.ndarray, start: int, width: int, od: int, oh: int
) -> np.ndarray:
    """Direct einsum over the (already padded) tail columns."""
    batch = xp.shape[0]
    oc, fd, fh, fw, ic = w.shape
    sn, sd, sh, sw, sc = xp.strides
    base = xp[:, :, :, start:, :]
    windows = np.lib.stride_tricks.as_strided(
        base,
        shape=(batch, od, oh, width, fd, fh, fw, ic),
        strides=(sn, sd, sh, sw, sd, sh, sw, sc),
        writeable=False,
    )
    return np.einsum("ndhwabcj,oabcj->ndhwo", windows, w, optimize=True)
