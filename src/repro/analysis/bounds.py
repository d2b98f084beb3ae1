"""Pass 2 — gather-index bounds analysis (ASan for the fused im2col gather).

The fused kernels never materialise the im2col matrix: every load address is
computed on the fly from ``(segment start, tile index, fh offset, padding)``.
The Indirect Convolution Algorithm (Dukhan 2019) shows this is exactly where
silent out-of-bounds reads hide — an index stream that escapes the padded
input reads memory that is neither data nor declared zero padding.

This pass symbolically enumerates the offset stream of every segment at tile
granularity and proves containment in the *padded* input

.. math::

    rows \\in [-ph, IH + ph), \\qquad cols \\in [-pw, IW + pw)

(coordinates in the unpadded frame; negative / overhanging offsets inside
that envelope are the implicit zero padding the kernels realise with
conditional statements, §5.1).  Anything outside is an OOB read (BND001/002
for Winograd segments, BND003 for the GEMM tail strip).

The stream is exact, not sampled: for a Winograd segment the gathered
columns per filter row are ``{start - pw + t*n + a : t < T, a < alpha}``
whose extrema the pass computes in closed form per tile — the same index
arithmetic :func:`repro.nhwc.tiles.extract_width_tiles` (and the CUDA
kernels' load addresses) use, so a clean bill here is a proof about the
real gather.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.boundary import Segment
from ..core.planner import ConvPlan
from ..nhwc.tensor import ConvShape
from .findings import Finding
from .rules import make_finding

__all__ = ["OffsetStream", "segment_offset_streams", "gather_bounds_findings"]


@dataclass(frozen=True)
class OffsetStream:
    """Closed-form extent of one segment's gather stream (unpadded coords).

    Rows/cols are half-open intervals of every address the segment's loads
    touch across all filter rows and tiles.  ``reads_padding`` records
    whether any offset lands in the implicit-zero region (legal; the §5.1
    conditional-statement padding handles it).
    """

    segment: str
    kind: str  # "winograd" or "gemm"
    row_lo: int
    row_hi: int  # exclusive
    col_lo: int
    col_hi: int  # exclusive
    tiles: int

    def reads_padding(self, shape: ConvShape) -> bool:
        return (
            self.row_lo < 0
            or self.col_lo < 0
            or self.row_hi > shape.ih
            or self.col_hi > shape.iw
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "segment": self.segment,
            "kind": self.kind,
            "rows": [self.row_lo, self.row_hi],
            "cols": [self.col_lo, self.col_hi],
            "tiles": self.tiles,
        }


def _winograd_stream(seg: Segment, shape: ConvShape) -> OffsetStream:
    """Exact gather extent of one Winograd segment.

    Per filter row ``f`` the tile gather reads unpadded rows
    ``[f - ph, f - ph + oh)``; unioned over ``f in [0, FH)`` that is
    ``[-ph, FH - 1 - ph + oh)``.  Columns: tile ``t`` reads
    ``[start - pw + t*n, start - pw + t*n + alpha)``; the union over the
    ``T = width / n`` tiles is contiguous because ``alpha >= n``.
    """
    spec = seg.kernel.spec  # type: ignore[union-attr]
    tiles = seg.width // spec.n if seg.width % spec.n == 0 else -(-seg.width // spec.n)
    col_lo = seg.start - shape.pw
    col_hi = col_lo + (tiles - 1) * spec.n + spec.alpha
    return OffsetStream(
        segment=seg.name,
        kind="winograd",
        row_lo=-shape.ph,
        row_hi=shape.fh - 1 - shape.ph + shape.oh,
        col_lo=col_lo,
        col_hi=col_hi,
        tiles=tiles,
    )


def _gemm_stream(seg: Segment, shape: ConvShape) -> OffsetStream:
    """Gather extent of a GEMM segment's input strip (see ``gemm_segment``).

    Output column ``c`` reads input columns ``[c*s - pw, c*s - pw + FW)``
    at stride ``s``, so the segment's strip is ``(width - 1)*s + FW``
    columns from ``start*s - pw``, and its ``OH`` output rows read
    ``(OH - 1)*s + FH`` rows from ``-ph``.
    """
    s = shape.stride
    col_lo = seg.start * s - shape.pw
    return OffsetStream(
        segment=seg.name,
        kind="gemm",
        row_lo=-shape.ph,
        row_hi=-shape.ph + (shape.oh - 1) * s + shape.fh,
        col_lo=col_lo,
        col_hi=col_lo + (seg.width - 1) * s + shape.fw,
        tiles=seg.width,
    )


def segment_offset_streams(plan: ConvPlan) -> list[OffsetStream]:
    """The symbolic gather stream of every segment in the plan."""
    shape = plan.shape
    return [
        _gemm_stream(s, shape) if s.is_gemm else _winograd_stream(s, shape)
        for s in plan.segments
    ]


def gather_bounds_findings(plan: ConvPlan) -> list[Finding]:
    """BND-rule findings: offsets escaping the padded input (empty = proven safe)."""
    findings: list[Finding] = []
    shape = plan.shape
    row_min, row_max = -shape.ph, shape.ih + shape.ph  # max exclusive
    col_min, col_max = -shape.pw, shape.iw + shape.pw
    streams = segment_offset_streams(plan)
    for i, (seg, stream) in enumerate(zip(plan.segments, streams, strict=True)):
        loc = {"segment": i, "kernel": seg.name}
        ctx = stream.as_dict()
        if stream.kind == "gemm":
            if stream.col_lo < col_min or stream.col_hi > col_max:
                findings.append(
                    make_finding(
                        "BND003",
                        f"GEMM tail strip cols [{stream.col_lo}, {stream.col_hi}) escape "
                        f"the padded input [{col_min}, {col_max})",
                        location=loc,
                        context=ctx,
                    )
                )
            continue
        if stream.row_lo < row_min or stream.col_lo < col_min:
            findings.append(
                make_finding(
                    "BND001",
                    f"{seg.name}: gather reads from (row {stream.row_lo}, col {stream.col_lo}) "
                    f"before the padded input start (row >= {row_min}, col >= {col_min})",
                    location=loc,
                    context=ctx,
                )
            )
        if stream.row_hi > row_max or stream.col_hi > col_max:
            findings.append(
                make_finding(
                    "BND002",
                    f"{seg.name}: gather reads up to (row {stream.row_hi}, col {stream.col_hi}) "
                    f"exclusive, past the padded input end (row <= {row_max}, col <= {col_max})",
                    location=loc,
                    context=ctx,
                )
            )
    return findings
