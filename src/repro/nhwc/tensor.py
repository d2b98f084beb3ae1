"""NHWC tensor utilities: shape math, padding, im2col / col2im.

Everything in this package treats 4D activations as ``(N, H, W, C)`` and
filters as ``(OC, FH, FW, IC)`` — the paper's Table 1 conventions.  Only unit
stride is supported by the Winograd paths (the paper's kernels are unit-stride
by design; strided convolutions are routed to GEMM by the planner, matching
Dragon-Alpha's dispatch described in Section 5.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvShape",
    "conv_output_size",
    "pad_nhwc",
    "im2col_nhwc",
    "im2col_nhwc_into",
    "im2col_slab_shape",
    "col2im_nhwc",
]


@dataclass(frozen=True)
class ConvShape:
    """Complete description of one 2D convolution problem (Table 1 notation).

    ``stride`` applies to both spatial axes; the Winograd kernels require
    ``stride == 1``.
    """

    batch: int
    ih: int
    iw: int
    ic: int
    oc: int
    fh: int
    fw: int
    ph: int = 0
    pw: int = 0
    stride: int = 1

    def __post_init__(self) -> None:
        for name in ("batch", "ih", "iw", "ic", "oc", "fh", "fw"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("ph", "pw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.oh < 1 or self.ow < 1:
            raise ValueError(f"empty output feature map for {self!r}")

    @property
    def oh(self) -> int:
        return conv_output_size(self.ih, self.fh, self.ph, self.stride)

    @property
    def ow(self) -> int:
        return conv_output_size(self.iw, self.fw, self.pw, self.stride)

    @property
    def input_shape(self) -> tuple[int, int, int, int]:
        return (self.batch, self.ih, self.iw, self.ic)

    @property
    def filter_shape(self) -> tuple[int, int, int, int]:
        return (self.oc, self.fh, self.fw, self.ic)

    @property
    def output_shape(self) -> tuple[int, int, int, int]:
        return (self.batch, self.oh, self.ow, self.oc)

    @property
    def flops(self) -> int:
        """Standard-convolution FLOPs: ``2 * N * OC * OH * OW * FH * FW * IC``.

        This is the numerator of the paper's Gflop/s metric (Section 6.1.1),
        used for *every* algorithm regardless of how many multiplications it
        actually performs.
        """
        return 2 * self.batch * self.oc * self.oh * self.ow * self.fh * self.fw * self.ic

    @classmethod
    def from_ofm(
        cls,
        batch: int,
        oh: int,
        ow: int,
        oc: int,
        *,
        r: int,
        ic: int | None = None,
        stride: int = 1,
    ) -> "ConvShape":
        """Build the shape the paper's experiments use from an ofm spec.

        Experiments 1 and 2 specify problems by output shape ``N×OH×OW×OC``
        with ``r × r`` filters, ``⌊r/2⌋`` padding and ``IC == OC`` (Section
        6); this constructor inverts the output-size formula accordingly.
        """
        ph = pw = r // 2
        ih = (oh - 1) * stride + r - 2 * ph
        iw = (ow - 1) * stride + r - 2 * pw
        return cls(
            batch=batch,
            ih=ih,
            iw=iw,
            ic=oc if ic is None else ic,
            oc=oc,
            fh=r,
            fw=r,
            ph=ph,
            pw=pw,
            stride=stride,
        )


def conv_output_size(size: int, filt: int, pad: int, stride: int = 1) -> int:
    """Output extent of one axis: ``(size + 2*pad - filt) // stride + 1``."""
    return (size + 2 * pad - filt) // stride + 1


def pad_nhwc(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the spatial axes of an NHWC tensor.

    Returns ``x`` itself when both pads are zero (view semantics; callers must
    not mutate).
    """
    if x.ndim != 4:
        raise ValueError(f"expected NHWC tensor, got ndim={x.ndim}")
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))


def im2col_nhwc(x: np.ndarray, fh: int, fw: int, ph: int, pw: int, stride: int = 1) -> np.ndarray:
    """Stage-1 Im2col operator (paper Section 4.1).

    Transforms ifms ``X (N, IH, IW, IC)`` into the matrix
    ``B ∈ R^{GM × GK}`` with ``GM = N*OH*OW`` and ``GK = FH*FW*IC``, laid out
    so that column blocks run ``(fh, fw, ic)`` — the order Stage 2's sliding
    windows assume.  Built by :func:`im2col_nhwc_into`.
    """
    n, ih, iw, ic = x.shape
    oh = conv_output_size(ih, fh, ph, stride)
    ow = conv_output_size(iw, fw, pw, stride)
    cols = np.empty((n, oh, ow, fh, fw * ic), dtype=x.dtype)
    im2col_nhwc_into(cols, x, fh, fw, ph, pw, stride)
    return cols.reshape(n * oh * ow, fh * fw * ic)


def im2col_slab_shape(
    x_shape: tuple[int, ...],
    fh: int,
    fw: int,
    ph: int,
    pw: int,
    stride: int = 1,
    col0: int = 0,
    width: int | None = None,
) -> tuple[int, ...] | None:
    """Shape of the zero-bordered slab :func:`im2col_nhwc_into` copies ``x`` into.

    ``None`` when output columns ``[col0, col0 + width)`` (``width``
    defaults to every column from ``col0`` on) read no padding, so the
    windows are cut from ``x`` itself.  A caller that reuses memory passes
    a buffer of at least this many elements as ``slab=``.
    """
    *lead, ih, iw, ic = x_shape
    oh = conv_output_size(ih, fh, ph, stride)
    if width is None:
        width = conv_output_size(iw, fw, pw, stride) - col0
    # Padded-input rows [-ph, rows - ph) and columns [c0, c0 + cols) hold
    # every tap of the segment's output pixels.
    rows, cols, c0 = (oh - 1) * stride + fh, (width - 1) * stride + fw, col0 * stride - pw
    if ph == 0 and c0 >= 0 and c0 + cols <= iw:
        return None
    return (*lead, rows, cols, ic)


def im2col_nhwc_into(
    out: np.ndarray,
    x: np.ndarray,
    fh: int,
    fw: int,
    ph: int,
    pw: int,
    stride: int = 1,
    col0: int = 0,
    slab: np.ndarray | None = None,
) -> None:
    """Write the im2col rows of output columns ``[col0, col0 + W)`` into ``out``.

    ``x`` is ``(..., IH, IW, IC)`` and ``out`` is ``(..., OH, W, FH, FW*IC)``
    with any strides, typically a view into a row-blocked GEMM operand, so
    the matrix is written where the contraction reads it.  In NHWC an output
    pixel's ``(fw, ic)`` window within one filter row is one contiguous
    ``FW*IC`` run of an input row (§4.1).  When the columns read any
    padding, the input window they read is copied once into a slab whose
    border strips are zeroed (the implicit padding, and nothing else of the
    slab is cleared); the whole matrix is then one strided window copy out
    of the slab, or out of ``x`` itself when no padding is read.  ``slab``
    is scratch memory of at least :func:`im2col_slab_shape` elements, fresh
    when omitted.
    """
    *lead, ih, iw, ic = x.shape
    oh, width = out.shape[-4], out.shape[-3]
    s = stride
    c0 = col0 * s - pw  # input column of the segment's first tap
    shape = im2col_slab_shape(x.shape, fh, fw, ph, pw, s, col0, width)
    if shape is None:
        src = x[..., c0:, :]
    else:
        rows, cols = shape[-3:-1]
        if slab is None:
            slab = np.empty(shape, dtype=out.dtype)
        src = slab.reshape(-1)[: math.prod(shape)].reshape(shape)
        # Slab rows [top, bot) and columns [left, right) hold input pixels;
        # the strips around them are the padding the windows read.
        top, bot = min(ph, rows), min(ph + ih, rows)
        left, right = min(max(-c0, 0), cols), max(min(iw - c0, cols), 0)
        src[..., :top, :, :] = 0
        src[..., bot:, :, :] = 0
        src[..., top:bot, :left, :] = 0
        src[..., top:bot, right:, :] = 0
        src[..., top:bot, left:right, :] = x[..., : bot - top, c0 + left : c0 + right, :]
    sh, sw, sc = src.strides[-3:]
    if sw == ic * sc:  # a window is one run of its source row
        dst, win, step = out, (fw * ic,), (sc,)
    else:
        dst = out.view()
        dst.shape = out.shape[:-1] + (fw, ic)  # raises rather than copy
        win, step = (fw, ic), (sw, sc)
    dst[...] = np.lib.stride_tricks.as_strided(
        src,
        shape=(*lead, oh, width, fh, *win),
        strides=(*src.strides[:-3], sh * s, sw * s, sh, *step),
        writeable=False,
    )


def col2im_nhwc(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    fh: int,
    fw: int,
    ph: int,
    pw: int,
    stride: int = 1,
) -> np.ndarray:
    """Adjoint of :func:`im2col_nhwc` (scatter-add).

    A strided convolution's data gradient scatters its column gradient back
    with it (:func:`repro.core.gradients.conv2d_input_grad`); unit-stride
    data gradients are forward convolutions over rotated filters instead.

    ``cols`` has shape ``(N*OH*OW, FH*FW*IC)``; overlapping window
    contributions are summed back into an ``input_shape`` NHWC tensor.
    """
    n, ih, iw, ic = input_shape
    oh = conv_output_size(ih, fh, ph, stride)
    ow = conv_output_size(iw, fw, pw, stride)
    xp = np.zeros((n, ih + 2 * ph, iw + 2 * pw, ic), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, fh, fw, ic)
    for i in range(fh):
        for j in range(fw):
            xp[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += cols6[
                :, :, :, i, j, :
            ]
    if ph == 0 and pw == 0:
        return xp
    return xp[:, ph : ph + ih, pw : pw + iw, :]
