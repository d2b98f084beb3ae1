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

The Winograd input and output transforms are the other BLAS calls a batch
reaches: a fixed matrix times one column per tile, so only their column
count grows with the batch.  Columns are computed independently, except
that a single column goes to a matrix-vector kernel; :func:`dot` keeps
that case a GEMM.
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
    "blocked_product",
    "blocked_shape",
    "blocks",
    "conv_matmul",
    "conv_operand",
    "dot",
    "fold_filters",
    "matmul",
    "zero_pad_rows",
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


def blocked_shape(
    lead: tuple[int, ...], images: int, depth: int, rows_per_image: int
) -> tuple[int, ...]:
    """Shape ``(*lead, nb, Mb, depth)`` of the blocked operand of ``images`` images."""
    nb = -(-images // block_images(rows_per_image))
    return lead + (nb, block_rows(rows_per_image), depth)


def zero_pad_rows(buf: np.ndarray, images: int, rows_per_image: int) -> np.ndarray:
    """Zero every row of a blocked ``buf`` that holds no image; returns ``buf``.

    Image ``i`` of block ``b`` owns rows ``[(i - i0) * R, (i - i0 + 1) * R)``
    of ``[..., b, :, :]`` (see :func:`blocks`); every other row is a pad row.
    Only pad rows are written, so a reused buffer costs no full clear.
    """
    k = block_images(rows_per_image)
    nb = buf.shape[-3]
    buf[..., k * rows_per_image :, :] = 0
    buf[..., nb - 1, (images - (nb - 1) * k) * rows_per_image :, :] = 0
    return buf


def blocked_operand(
    lead: tuple[int, ...], images: int, depth: int, rows_per_image: int, dtype: np.dtype
) -> np.ndarray:
    """A fresh ``(*lead, nb, Mb, depth)`` operand for ``images`` images, pad rows zeroed.

    A caller that writes its images in place (see :func:`zero_pad_rows` for
    the row layout) has a ready :func:`blocked_matmul` operand without a
    second copy.
    """
    buf = np.empty(blocked_shape(lead, images, depth, rows_per_image), dtype=dtype)
    return zero_pad_rows(buf, images, rows_per_image)


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


def blocked_product(
    blocked: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The raw ``(*lead, nb, Mb, P)`` product of a blocked operand with ``b``.

    ``b`` is ``(*lead, K, P)`` or ``(K, P)``; one ``Mb``-row GEMM runs per
    block, into ``out`` when given.  Pad rows of the product are zero.
    """
    return np.matmul(blocked, b[..., None, :, :], out=out)


def blocked_matmul(blocked: np.ndarray, b: np.ndarray, rows_per_image: int) -> np.ndarray:
    """Contract an ``(*lead, nb, Mb, K)`` blocked operand with ``b``.

    ``b`` is ``(*lead, K, P)`` or ``(K, P)``; one ``Mb``-row GEMM runs per
    block.  Returns the ``(*lead, nb * k * R, P)`` product rows in image
    order, the last block's missing images included as zero rows.
    """
    out = blocked_product(blocked, b)
    used = block_images(rows_per_image) * rows_per_image
    flat = out[..., :used, :]
    return flat.reshape(out.shape[:-3] + (out.shape[-3] * used, out.shape[-1]))


def matmul(a: np.ndarray, b: np.ndarray, rows_per_image: int) -> np.ndarray:
    """``a @ b`` for a plain ``(*lead, N*R, K)`` operand, in row blocks.

    ``b`` is ``(*lead, K, P)`` or ``(K, P)``; returns ``(*lead, N*R, P)``.
    """
    rows = a.shape[-2]
    return blocked_matmul(_pack(a, rows_per_image), b, rows_per_image)[..., :rows, :]


def dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for a 2-D ``b`` whose column count grows with the batch, always as a GEMM.

    The Winograd transforms contract a fixed matrix with every tile column
    of a chunk, so their ``N`` is the only GEMM dimension a batch sets.
    NumPy hands BLAS a one-column product as a matrix-vector product, which
    rounds differently from the GEMM every wider batch gets; a single
    column therefore runs as two, the second zero.  Writes into ``out``
    when given.
    """
    if b.shape[1] != 1:
        return np.dot(a, b, out=out)
    wide = np.zeros((b.shape[0], 2), dtype=b.dtype)
    wide[:, 0] = b[:, 0]
    res = np.dot(a, wide)[:, :1]
    if out is None:
        return res
    out[...] = res
    return out


def fold_filters(w: np.ndarray) -> np.ndarray:
    """``(OC, FH, FW, IC)`` filters as the ``(FH*FW*IC, OC)`` GEMM operand."""
    oc, fh, fw, ic = w.shape
    return np.ascontiguousarray(w.transpose(1, 2, 3, 0).reshape(fh * fw * ic, oc))


def conv_operand(
    buf: np.ndarray,
    x: np.ndarray,
    fh: int,
    fw: int,
    ph: int,
    pw: int,
    *,
    width: int,
    stride: int = 1,
    col0: int = 0,
    slab: np.ndarray | None = None,
) -> np.ndarray:
    """Write the im2col rows of output columns ``[col0, col0 + width)`` into ``buf``.

    ``x`` is ``(N, IH, IW, IC)`` and ``buf`` the ``(nb, Mb, FH*FW*IC)``
    blocked operand of its ``N`` images (:func:`blocked_shape`), fresh or
    reused: the rows are written by one strided window copy per block
    group straight into their block rows (:func:`im2col_nhwc_into`, which
    borders the input window in ``slab`` when given) and the pad rows are
    zeroed, so the matrix is materialised once, with no repacking.
    Returns ``buf``.
    """
    n, ih, iw, ic = x.shape
    oh = conv_output_size(ih, fh, ph, stride)
    r = oh * width
    k = block_images(r)
    zero_pad_rows(buf, n, r)
    images = buf[:, : k * r].view()
    images.shape = (buf.shape[0], k, oh, width, fh, fw * ic)  # raises rather than copy
    full, rest = divmod(n, k)
    if full:
        xs = x[: full * k].reshape(full, k, ih, iw, ic)
        im2col_nhwc_into(images[:full], xs, fh, fw, ph, pw, stride, col0, slab)
    if rest:
        im2col_nhwc_into(images[full, :rest], x[full * k :], fh, fw, ph, pw, stride, col0, slab)
    return buf


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
    The operand is built by :func:`conv_operand`.  Returns
    ``(N, OH, width, OC)``.
    """
    n, ih, iw, ic = x.shape
    oh = conv_output_size(ih, fh, ph, stride)
    if width is None:
        width = conv_output_size(iw, fw, pw, stride) - col0
    r = oh * width
    buf = np.empty(blocked_shape((), n, fh * fw * ic, r), dtype=x.dtype)
    conv_operand(buf, x, fh, fw, ph, pw, width=width, stride=stride, col0=col0)
    return blocked_matmul(buf, a, r)[: n * r].reshape(n, oh, width, a.shape[-1])
