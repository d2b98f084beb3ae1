"""1D input-tile extraction with (r-1)-overlap.

Stage 2 of Im2col-Winograd slides an ``alpha``-wide window across the input
width with stride ``n``; adjacent tiles overlap by ``r - 1`` items (paper
Figure 6).  This module produces those tiles for a whole NHWC tensor at once,
using stride tricks where the geometry allows a zero-copy view and explicit
zero-fill where implicit padding makes a tile hang past the tensor edge
(matching the kernels' conditional-statement padding, Section 5).
"""

from __future__ import annotations

import numpy as np

from ..obs import counter_add

__all__ = ["extract_width_tiles", "tile_overlap", "tile_count"]


def tile_overlap(r: int) -> int:
    """Overlap between adjacent ``F(n, r)`` input tiles: ``r - 1`` items."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return r - 1


def tile_count(ow_segment: int, n: int) -> int:
    """Number of full output tiles covering ``ow_segment`` outputs (must divide)."""
    if ow_segment % n != 0:
        raise ValueError(
            f"segment width {ow_segment} not divisible by tile size {n}; "
            "run the boundary planner first"
        )
    return ow_segment // n


def extract_width_tiles(
    x: np.ndarray,
    *,
    fh_offset: int,
    ow_start: int,
    num_tiles: int,
    n: int,
    alpha: int,
    ph: int,
    pw: int,
    oh: int,
) -> np.ndarray:
    """Gather the Stage-2 input tiles for one filter row.

    For output row ``oh_idx`` and output tile ``t`` starting at output column
    ``ow_start + t*n``, the tile covers padded-input columns
    ``[ow_start + t*n, ow_start + t*n + alpha)`` of padded-input row
    ``oh_idx + fh_offset``.  Implicit zero padding is realised by copying into
    a zero buffer only when a tile would poke outside the physical tensor.

    Parameters
    ----------
    x:
        Input ifms ``(N, IH, IW, IC)`` (unpadded).
    fh_offset:
        Which filter row's input rows to gather (``0 <= fh_offset < FH``).
    ow_start:
        First output column of the segment (boundary treatment may start
        mid-tensor).
    num_tiles:
        Number of ``n``-wide output tiles in the segment.
    n, alpha:
        Tile output count and state count of the kernel.
    ph, pw:
        Convolution padding.
    oh:
        Output height (number of output rows to gather).

    Returns
    -------
    Array of shape ``(N, OH, num_tiles, alpha, IC)`` with tiles in the dtype
    of ``x``.
    """
    batch, ih, iw, ic = x.shape
    # Padded-input coordinates of the gathered region.
    row_lo = fh_offset - ph  # padded row index of output row 0
    col_lo = ow_start - pw
    col_hi = col_lo + (num_tiles - 1) * n + alpha  # exclusive, in unpadded coords

    rows_ok = 0 <= row_lo and row_lo + oh <= ih
    cols_ok = 0 <= col_lo and col_hi <= iw
    if rows_ok and cols_ok:
        region = x[:, row_lo : row_lo + oh, col_lo:col_hi, :]
    else:
        # Materialise just the needed padded region (cheaper than padding all
        # of x when only edge tiles are ragged).
        region = _gather_padded_region(x, row_lo, oh, col_lo, col_hi - col_lo)
    sn, sh, sw, sc = region.strides
    tiles = np.lib.stride_tricks.as_strided(
        region,
        shape=(batch, oh, num_tiles, alpha, ic),
        strides=(sn, sh, sw * n, sw, sc),
        writeable=False,
    )
    # Logical gather volume: what the CUDA kernels' load addresses would
    # actually read (the overlap is re-read, per Figure 6), not the view's
    # physical footprint.
    counter_add("gather.calls")
    counter_add("gather.bytes", batch * oh * num_tiles * alpha * ic * x.itemsize)
    return tiles


def _gather_padded_region(
    x: np.ndarray,
    row_lo: int,
    rows: int,
    col_lo: int,
    cols: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Copy ``rows x cols`` of the implicitly zero-padded input into a buffer.

    ``out`` (shape ``(N, rows, cols, IC)``) receives the region when given,
    for a caller that reuses one buffer: only the strips that fall in the
    padding are zeroed, so a reused buffer costs no full clear.
    """
    batch, ih, iw, ic = x.shape
    if out is None:
        out = np.empty((batch, rows, cols, ic), dtype=x.dtype)
    r0 = min(max(-row_lo, 0), rows)
    r1 = max(min(ih - row_lo, rows), r0)
    c0 = min(max(-col_lo, 0), cols)
    c1 = max(min(iw - col_lo, cols), c0)
    out[:, :r0] = 0
    out[:, r1:] = 0
    out[:, r0:r1, :c0] = 0
    out[:, r0:r1, c1:] = 0
    out[:, r0:r1, c0:c1] = x[:, row_lo + r0 : row_lo + r1, col_lo + c0 : col_lo + c1]
    return out
