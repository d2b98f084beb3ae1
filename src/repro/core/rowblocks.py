"""Row blocks: every served BLAS contraction at a batch-independent shape.

The paper's kernels quantize work into fixed ``BM``-row tiles (§4.1): a
thread block computes the same ``BM x BN`` tile however many tiles the
grid holds, so a tile's arithmetic never depends on the batch.  A host
BLAS call has no such guarantee.  OpenBLAS picks its kernel and blocking
from the GEMM's ``M`` dimension, and ``M`` grows with the batch, so the
same image can round differently inside a batch of 6 than alone.

This module is the host twin of the BM tile.  An operand with ``R`` rows
per image is contracted in blocks of ``k = ceil(ROW_BLOCK_TARGET / R)``
whole images.  Each block holds ``k * R`` rows, padded with zero rows up
to a multiple of :data:`ROW_ALIGN`; that block height ``Mb`` is fixed by
the signature (``R``), never by ``N``.  The last block's missing images are
zero rows too, and all blocks go out as one broadcast :func:`numpy.matmul`,
which issues one ``Mb``-row GEMM per block.

Why the alignment: inside one GEMM, rows that fall in the BLAS
microkernel's ragged ``M`` edge are computed by a different kernel than
rows in full tiles, and the two can round differently (a 66-row GEMM over
60 channels does, on OpenBLAS 0.3 / Haswell).  An image sits at a different
row offset of its block depending on its place in the batch, so every row
of a block must lie in full tiles.  With both the GEMM shape and the
tiling fixed, an image's bits do not depend on the batch it shares, nor on
where workspace or thread chunks are cut, as long as cuts fall on whole
blocks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..nhwc.tensor import conv_output_size, im2col_nhwc_into

__all__ = [
    "ROW_ALIGN",
    "ROW_BLOCK_TARGET",
    "block_images",
    "block_rows",
    "blocked_matmul",
    "blocked_operand",
    "blocks",
    "conv_matmul",
    "fold_filters",
    "matmul",
]

#: Target rows per BLAS call.  Smaller targets waste fewer pad rows on a
#: batch-1 forward; larger ones keep OpenBLAS in its efficient large-M
#: kernels at batch 8 (see DESIGN.md, "Row blocks", for the measurements).
ROW_BLOCK_TARGET = 64

#: Block heights are rounded up to a multiple of this many rows, so that no
#: real row lands in a BLAS microkernel's ragged ``M`` edge.  16 covers the
#: widest single-precision ``M`` unroll of the x86 OpenBLAS kernels.
ROW_ALIGN = 16


def block_images(rows_per_image: int) -> int:
    """Images per block, ``k = ceil(ROW_BLOCK_TARGET / R)``."""
    if rows_per_image < 1:
        raise ValueError(f"rows_per_image must be >= 1, got {rows_per_image}")
    return -(-ROW_BLOCK_TARGET // rows_per_image)


def block_rows(rows_per_image: int) -> int:
    """Block height ``Mb``: ``k * R`` rounded up to :data:`ROW_ALIGN`."""
    used = block_images(rows_per_image) * rows_per_image
    return -(-used // ROW_ALIGN) * ROW_ALIGN


def blocks(images: int, rows_per_image: int) -> Iterator[tuple[int, int, int]]:
    """``(block, first image, end image)`` of each block of an ``images`` batch."""
    k = block_images(rows_per_image)
    for b, i0 in enumerate(range(0, images, k)):
        yield b, i0, min(i0 + k, images)


def blocked_operand(
    lead: tuple[int, ...], images: int, depth: int, rows_per_image: int, dtype: np.dtype
) -> np.ndarray:
    """An ``(*lead, nb, Mb, depth)`` operand for ``images`` images, pad rows zeroed.

    Image ``i`` of block ``b`` owns rows ``[(i - i0) * R, (i - i0 + 1) * R)``
    of ``[..., b, :, :]`` (see :func:`blocks`); every other row is zero, so a
    caller that writes its images in place has a ready
    :func:`blocked_matmul` operand without a second copy.
    """
    k = block_images(rows_per_image)
    nb = -(-images // k)
    buf = np.empty(lead + (nb, block_rows(rows_per_image), depth), dtype=dtype)
    buf[..., k * rows_per_image :, :] = 0
    buf[..., nb - 1, (images - (nb - 1) * k) * rows_per_image :, :] = 0
    return buf


def _pack(a: np.ndarray, rows_per_image: int) -> np.ndarray:
    """A plain ``(*lead, N*R, K)`` operand in its blocked layout."""
    r = rows_per_image
    rows, depth = a.shape[-2:]
    if rows % r:
        raise ValueError(f"{rows} rows is not a whole number of {r}-row images")
    mb = block_rows(r)
    if rows % mb == 0 and block_images(r) * r == mb:
        return a.reshape(a.shape[:-2] + (rows // mb, mb, depth))
    buf = blocked_operand(a.shape[:-2], rows // r, depth, r, a.dtype)
    for b, i0, i1 in blocks(rows // r, r):
        buf[..., b, : (i1 - i0) * r, :] = a[..., i0 * r : i1 * r, :]
    return buf


def blocked_matmul(blocked: np.ndarray, b: np.ndarray, rows_per_image: int) -> np.ndarray:
    """Contract an ``(*lead, nb, Mb, K)`` blocked operand with ``b``.

    ``b`` is ``(*lead, K, P)`` or ``(K, P)``; one ``Mb``-row GEMM runs per
    block.  Returns the ``(*lead, nb * k * R, P)`` product rows in image
    order, the last block's missing images included as zero rows.
    """
    out = np.matmul(blocked, b[..., None, :, :])
    used = block_images(rows_per_image) * rows_per_image
    flat = out[..., :used, :]
    return flat.reshape(out.shape[:-3] + (out.shape[-3] * used, out.shape[-1]))


def matmul(a: np.ndarray, b: np.ndarray, rows_per_image: int) -> np.ndarray:
    """``a @ b`` for a plain ``(*lead, N*R, K)`` operand, in row blocks.

    ``b`` is ``(*lead, K, P)`` or ``(K, P)``; returns ``(*lead, N*R, P)``.
    """
    rows = a.shape[-2]
    return blocked_matmul(_pack(a, rows_per_image), b, rows_per_image)[..., :rows, :]


def fold_filters(w: np.ndarray) -> np.ndarray:
    """``(OC, FH, FW, IC)`` filters as the ``(FH*FW*IC, OC)`` GEMM operand."""
    oc, fh, fw, ic = w.shape
    return np.ascontiguousarray(w.transpose(1, 2, 3, 0).reshape(fh * fw * ic, oc))


def conv_matmul(
    x: np.ndarray,
    a: np.ndarray,
    fh: int,
    fw: int,
    ph: int,
    pw: int,
    *,
    stride: int = 1,
    col0: int = 0,
    width: int | None = None,
) -> np.ndarray:
    """Im2col GEMM convolution of output columns ``[col0, col0 + width)``, in row blocks.

    ``x`` is ``(N, IH, IW, IC)`` and ``a`` the folded ``(FH*FW*IC, OC)``
    filter operand; ``width`` defaults to every column from ``col0`` on.
    The im2col rows (``OH * width`` per image) are written from NHWC row
    windows straight into a :func:`blocked_operand` buffer, so the matrix
    is materialised once, with no padded copy of ``x`` and no repacking.
    Returns ``(N, OH, width, OC)``.
    """
    n, ih, iw, ic = x.shape
    oh = conv_output_size(ih, fh, ph, stride)
    if width is None:
        width = conv_output_size(iw, fw, pw, stride) - col0
    r = oh * width
    k = block_images(r)
    buf = blocked_operand((), n, fh * fw * ic, r, x.dtype)
    images = buf[:, : k * r].view()
    images.shape = (buf.shape[0], k, oh, width, fh, fw * ic)  # raises rather than copy
    full, rest = divmod(n, k)
    if full:
        xs = x[: full * k].reshape(full, k, ih, iw, ic)
        im2col_nhwc_into(images[:full], xs, fh, fw, ph, pw, stride, col0)
    if rest:
        im2col_nhwc_into(images[full, :rest], x[full * k :], fh, fw, ph, pw, stride, col0)
    return blocked_matmul(buf, a, r)[: n * r].reshape(n, oh, width, a.shape[-1])
