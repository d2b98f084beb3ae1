"""The fused Im2col-Winograd convolution ``Gamma_alpha(n, r)``.

This is the paper's primary contribution (§4.1), expressed as vectorised
NumPy.  The two stages are:

Stage 1 (Im2col)
    A pure index mapping from the NHWC ifms to the GEMM operand layout; it is
    never materialised — the tile gather in :mod:`repro.nhwc.tiles` reads the
    ifms through the same index arithmetic the CUDA kernels encode in their
    load addresses, which is what makes the algorithm "fused": zero auxiliary
    global workspace.

Stage 2 (Winograd)
    For each ``n``-wide output tile, 1D Winograd ``F(n, r)`` is applied to
    every ``(fh, ic)`` 1D convolution and *accumulated in the transform
    domain*: because the output transform ``A^T`` is linear, the kernel keeps
    ``alpha`` running states per tile (the 64-element ``accumulator`` of
    Algorithms 1/2) and applies ``A^T`` exactly once at the end::

        acc[k] = sum_{fh, ic} (G w[oc, fh, :, ic])[k] * (D^T x_tile[fh, ic])[k]
        y[tile] = A^T acc

    On the GPU the channel loop is blocked by ``BK = 8`` columns (the
    cache-blocking of §5.1) so the tiles fit SMEM.  The host path
    accumulates the whole ``(fh, ic)`` depth in one GEMM per ``alpha``
    state.  Every GEMM runs in the signature-fixed row blocks of
    :mod:`repro.core.rowblocks`, the host analogue of the kernels' BM tiles.

Boundary columns are handled by the §5.5 segmentation: the planner splits OW
into kernel-owned segments plus a GEMM tail, and this module runs each
segment independently (no masking, no redundant flops).

Only unit stride is supported, as in the paper; strided convolutions belong
to the GEMM path (see :mod:`repro.core.planner`).
"""

from __future__ import annotations

import numpy as np

from ..nhwc.tensor import conv_output_size
from ..nhwc.tiles import extract_width_tiles
from ..obs import counter_add, span
from . import rowblocks
from .boundary import Segment, plan_width_segments
from .kernels import KernelId, default_alpha_for_width, get_kernel
from .transforms import TransformMatrices, winograd_matrices

__all__ = ["conv2d_im2col_winograd", "winograd_segment", "gemm_segment"]


def conv2d_im2col_winograd(
    x: np.ndarray,
    w: np.ndarray,
    *,
    ph: int | None = None,
    pw: int | None = None,
    alpha: int | None = None,
    variant: str = "base",
    dtype: np.dtype | type = np.float32,
    legacy: bool = False,
) -> np.ndarray:
    """Unit-stride 2D convolution via fused Im2col-Winograd.

    Parameters
    ----------
    x:
        ifms ``(N, IH, IW, IC)``, NHWC.
    w:
        Filters ``(OC, FH, FW, IC)``.
    ph, pw:
        Zero padding; defaults to the paper's standard ``⌊r/2⌋`` on each axis
        (``r`` the respective filter extent).  The kernels are specialised
        for ``pw <= ⌊FW/2⌋`` (§5.1) but remain correct for any ``pw < FW``
        thanks to the implicit-padding tile gather.
    alpha:
        Winograd state count (4, 8 or 16).  Defaults to the per-width choice
        of :func:`repro.core.kernels.default_alpha_for_width`.
    variant:
        ``"base"``, ``"ruse"`` or ``"c64"`` — numerically identical (§5.4/
        §5.6 change blocking, not arithmetic); accepted so callers can keep a
        single code path with the performance model.
    dtype:
        Computation dtype (``float32`` matches the paper's kernels).
    legacy:
        ``False`` (default) resolves the call through the compiled-plan
        runtime (:mod:`repro.runtime`): cached boundary plan, transform
        matrices and filter transforms, with the Winograd stage gathered
        and input-transformed once per chunk in a reused workspace.  ``True``
        forces the original interpreted path (re-planned per call, per-``fh``
        gather and input transform) — the reference the
        runtime is tested bit-identical against.  Both paths run one GEMM
        per ``alpha`` state over the full ``(fh, ic)`` depth, so they
        produce the same bits.

    Returns
    -------
    ofms ``(N, OH, OW, OC)`` in ``dtype``.
    """
    if not legacy:
        from ..runtime import convolve  # lazy: runtime imports core at load

        return convolve(x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype)
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"expected 4D x and w, got ndim {x.ndim} and {w.ndim}")
    if x.shape[3] != w.shape[3]:
        raise ValueError(f"channel mismatch: input IC={x.shape[3]}, filter IC={w.shape[3]}")
    oc, fh, fw, ic = w.shape
    if ph is None:
        ph = fh // 2
    if pw is None:
        pw = fw // 2
    if not (0 <= pw < fw and 0 <= ph < fh) and (fh > 1 or fw > 1):
        # pw >= fw would create all-zero leading tiles; supported by GEMM only.
        raise ValueError(f"padding (ph={ph}, pw={pw}) must satisfy 0 <= p < filter extent")
    if alpha is None:
        alpha = default_alpha_for_width(fw)
    if np.dtype(dtype) == np.float16 and alpha == 16:
        # §6.2.2 taken to its limit: F(n, r) transform entries reach 1.6e4
        # at alpha=16, past half precision's usable range — results would be
        # numerically meaningless (alpha in {4, 8} stays within ~1e-2..1e-3
        # relative error and is supported).
        raise ValueError(
            "alpha=16 is not representable in float16 (transform-matrix "
            "magnitude disparity, see §6.2.2); use alpha<=8 or float32"
        )
    primary = get_kernel(alpha, fw, variant)

    x = np.asarray(x, dtype=dtype)
    w = np.asarray(w, dtype=dtype)
    n_, ih, iw, _ = x.shape
    oh = conv_output_size(ih, fh, ph)
    ow = conv_output_size(iw, fw, pw)
    if oh < 1 or ow < 1:
        raise ValueError(f"empty output {oh}x{ow}")

    y = np.empty((n_, oh, ow, oc), dtype=dtype)
    segments = plan_width_segments(ow, fw, primary=primary)
    with span(
        "conv2d",
        batch=n_,
        ih=ih,
        iw=iw,
        ic=ic,
        oc=oc,
        fh=fh,
        fw=fw,
        oh=oh,
        ow=ow,
        alpha=alpha,
        variant=variant,
        segments=len(segments),
    ):
        # Paper-metric numerator (§6.1.1): standard-convolution FLOPs.
        counter_add("conv.calls")
        counter_add("conv.flops", 2 * n_ * oc * oh * ow * fh * fw * ic)
        for seg in segments:
            if seg.is_gemm:
                with span("segment", kind="gemm", start=seg.start, width=seg.width):
                    y[:, :, seg.start : seg.start + seg.width, :] = gemm_segment(
                        x, w, seg, ph=ph, pw=pw, oh=oh
                    )
            else:
                with span(
                    "segment",
                    kind="winograd",
                    kernel=seg.name,
                    start=seg.start,
                    width=seg.width,
                ):
                    y[:, :, seg.start : seg.start + seg.width, :] = winograd_segment(
                        x, w, seg, ph=ph, pw=pw, oh=oh
                    )
    return y


def winograd_segment(
    x: np.ndarray,
    w: np.ndarray,
    seg: Segment,
    *,
    ph: int,
    pw: int,
    oh: int,
    mats: TransformMatrices | None = None,
) -> np.ndarray:
    """Compute one Winograd-owned output segment.

    Implements the accumulator workflow of Algorithms 1/2: per filter row,
    gather + input-transform the tiles; filter-transform the weights; fuse
    the elementwise products into the ``alpha``-state accumulator (one GEMM
    per state over the full ``(fh, ic)`` depth); output-transform once at
    the end.  Each GEMM runs in the row
    blocks of :mod:`repro.core.rowblocks`, as the compiled runtime does.

    Returns the segment's ofms slice ``(N, OH, seg.width, OC)``.
    """
    kernel: KernelId = seg.kernel  # type: ignore[assignment]
    spec = kernel.spec
    n_out, r, alpha = spec.n, spec.r, spec.alpha
    if seg.width % n_out != 0:
        raise ValueError(f"segment width {seg.width} not divisible by n={n_out}")
    num_tiles = seg.width // n_out
    batch = x.shape[0]
    oc, fh, fw, ic = w.shape
    if mats is None:
        mats = winograd_matrices(n_out, r, dtype=x.dtype.name)
    elif np.dtype(mats.AT.dtype) != x.dtype:
        # A float64 mats would silently upcast the whole accumulator (and
        # the output), masking the precision the caller asked for.
        raise ValueError(
            f"mats dtype {mats.AT.dtype} does not match input dtype {x.dtype}; "
            "pass mats.as_dtype(x.dtype) or omit mats"
        )

    counter_add("winograd.segments", kernel=kernel.name)
    counter_add("winograd.tiles", batch * oh * num_tiles, kernel=kernel.name)
    counter_add(
        "winograd.elem_mul_flops",
        2 * batch * oh * num_tiles * oc * alpha * fh * ic,
        kernel=kernel.name,
    )

    # Filter transform: U[k, fh, ic, oc] = sum_p G[k, p] * w[oc, fh, p, ic].
    # Computed once for the whole segment (the kernels re-derive it per
    # iteration from SMEM; the arithmetic is identical).
    with span("transform.filter", kernel=kernel.name):
        u = np.ascontiguousarray(np.einsum("kp,ofpi->kfio", mats.G, w, optimize=True))

    # The row-blocked contraction operand V[k, (n, h, t), (f, c)]: each
    # filter row's input transform fills its (f, c) column band.
    rows_per_image = oh * num_tiles
    m_rows = batch * rows_per_image
    v = rowblocks.blocked_operand((alpha,), batch, fh * ic, rows_per_image, x.dtype)
    for f in range(fh):
        with span("gather", fh_offset=f):
            tiles = extract_width_tiles(
                x,
                fh_offset=f,
                ow_start=seg.start,
                num_tiles=num_tiles,
                n=n_out,
                alpha=alpha,
                ph=ph,
                pw=pw,
                oh=oh,
            )  # (N, OH, T, alpha, IC) view
        with span("transform.input", fh_offset=f):
            blk = np.ascontiguousarray(tiles)  # (N, OH, T, alpha, IC)
            # Input transform: V[k, ...] = sum_a DT[k, a] * blk[..., a, :],
            # one GEMM over every tile column.
            vf = rowblocks.dot(mats.DT, blk.transpose(3, 0, 1, 2, 4).reshape(alpha, -1))
            vf = vf.reshape(alpha, m_rows, ic)
            for b, i0, i1 in rowblocks.blocks(batch, rows_per_image):
                v[:, b, : (i1 - i0) * rows_per_image, f * ic : (f + 1) * ic] = vf[
                    :, i0 * rows_per_image : i1 * rows_per_image
                ]
    # Elementwise products in the transform domain summed into the alpha
    # running states: batched (per-state) GEMMs, the 8x(8x8) outer-product
    # stage.
    # One GEMM per alpha state over every (fh, ic) product.
    with span("accumulate", kernel=kernel.name):
        m = rowblocks.blocked_matmul(v, u.reshape(alpha, fh * ic, oc), rows_per_image)
        m = m[:, :m_rows]
    # Output transform, once: y[j] = sum_k AT[j, k] m[k].
    with span("transform.output", kernel=kernel.name):
        y = rowblocks.dot(mats.AT, m.reshape(alpha, -1)).reshape(n_out, m_rows, oc)
    # (n, batch*oh*T, oc) -> (N, OH, T*n, OC)
    return y.transpose(1, 0, 2).reshape(batch, oh, num_tiles * n_out, oc)


def gemm_segment(
    x: np.ndarray, w: np.ndarray, seg: Segment, *, ph: int, pw: int, oh: int
) -> np.ndarray:
    """Compute the GEMM tail segment (§5.5: "GEMM convolution processes the
    final remaining segment that Im2col-Winograd can not cover").

    Only the ``seg.width`` needed output columns are produced: the input
    slice feeding them is ``[seg.start - pw, seg.start - pw + width + fw - 1)``
    in unpadded coordinates, with implicit zero padding, and their im2col
    rows are written straight into the row-blocked GEMM operand
    (:func:`~repro.core.rowblocks.conv_matmul`).
    """
    _, fh, fw, _ = w.shape
    counter_add("gemm.tail_segments")
    counter_add("gemm.tail_columns", seg.width)
    a = rowblocks.fold_filters(w)
    return rowblocks.conv_matmul(x, a, fh, fw, ph, pw, col0=seg.start, width=seg.width)
