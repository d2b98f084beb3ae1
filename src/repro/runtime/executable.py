"""Compiled conv executables: plan once, execute many.

A :class:`ConvExecutable` is the compiled form of one
:class:`~repro.runtime.signature.ConvSignature`.  Construction performs every
piece of work the interpreted path
(:func:`repro.core.fused.conv2d_im2col_winograd` with ``legacy=True``)
re-derives on each call:

* the §5.5 boundary segmentation (stored as a real
  :class:`~repro.core.planner.ConvPlan`, so the static sanitizer can audit
  cached plans directly),
* the exact Toom-Cook transform matrices per Winograd scheme in the plan,
* a *gather descriptor* per Winograd segment — the padded-region bounds and
  stride-trick geometry of the Stage-1 Im2col mapping, including whether the
  region is interior (pure zero-copy view) or needs one zero-filled edge
  buffer,
* a small LRU of the §6.1.2 filter transforms ``U = G w`` (layout
  ``(alpha, FH, IC, OC)``, which reshapes to the ``(alpha, FH*IC, OC)``
  contraction operand without a copy) and, for a plan with a GEMM segment
  only, of the folded GEMM operand, matched by caller-named weight version
  or else by an exact bit compare against a private copy of the source
  weights.  Frozen callers skip the cache and pass their own
  :class:`FilterBundle`.

Execution gathers all ``FH`` filter rows as one strided view, runs the
input transform as one GEMM per chunk and writes ``V`` once, in the
``(alpha, M, FH*IC)`` layout of the contraction, straight into a row-block
padded buffer (:mod:`repro.core.rowblocks`).  In the transform-domain
accumulation each ``alpha`` state runs one GEMM over the full ``(fh, ic)``
depth against ``U`` reshaped to ``(alpha, FH*IC, OC)`` — the paper's
transform-domain accumulation of every ``(fh, ic)`` product before one
output transform.  Every contraction, including the §5.5 GEMM tail, runs in
row blocks whose shape is fixed by the signature, exactly as the legacy
path does, so the two produce the same bits (asserted across the registry
in ``tests/test_runtime.py``) and no row's bits depend on the batch it
shares.

A GEMM signature (:func:`~repro.runtime.signature.conv_engine`'s pick for
small layers) compiles to a plan of one GEMM segment spanning ``OW``: the
tail's row-blocked im2col GEMM over every column, with the folded filters
as its operand, and none of the Winograd state.  A GEMM segment builds its
operand with one strided window copy out of a zero-bordered slab in the
workspace (:func:`~repro.nhwc.tensor.im2col_nhwc_into`); when its blocks
hold whole images and no pad rows and it spans every column, the GEMM
writes straight into ``y``.

Each segment streams through chunks of whole row blocks sized by the
workspace budget (``workspace_bytes``): a chunk runs gather → input
transform → V → accumulate → output transform, the last one GEMM whose
product is copied once, transposed, into its slice of ``y``, before the
next chunk starts.  A call runs its chunks one after another on the
calling thread.  Every chunk intermediate is a view into that thread's
workspace (:func:`_workspace`), one flat buffer per thread reused across
chunks and calls, so a warm call allocates only ``y`` and concurrent
callers (the serving execute worker, the caller's own threads) never share
one.  Chunks are cut on whole row blocks, so chunk boundaries never change
the arithmetic.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from ..core import rowblocks
from ..core.boundary import GEMM, Segment, plan_width_segments
from ..core.kernels import get_kernel
from ..core.planner import ConvPlan
from ..core.transforms import TransformMatrices, filter_columns, filter_transform, winograd_matrices
from ..nhwc.tensor import ConvShape, im2col_slab_shape
from ..nhwc.tiles import _gather_padded_region
from ..obs import counter_add, gauge_set, span
from .signature import ConvSignature

__all__ = ["ConvExecutable", "FilterBundle", "build_filter_bundle", "compiled_plan"]

SchemeKey = tuple[int, int]  # (n, r)

#: Filter-transform cache entries kept per executable.  Frozen inference
#: holds its bundles in the layers and never touches this cache; training
#: alternates between at most a couple of weight versions per step (forward
#: + recomputed backward filters), so a handful of slots bounds memory
#: without thrashing.
FILTER_CACHE_SLOTS = 4

#: Evenly spaced elements an unversioned lookup compares before the full
#: bit compare, so a slot holding other weights is rejected cheaply.
_SAMPLE_POINTS = 64

#: This thread's chunk workspace: one flat byte buffer per calling thread,
#: grown to the largest chunk the thread has run and reused by every later
#: chunk and call (see :func:`_workspace`).
_ARENA = threading.local()

#: Default per-chunk budget for a segment's intermediates (gathered region,
#: V, M, output transform), as estimated per image by
#: ``ConvExecutable._row_bytes``.  Each segment streams through
#: chunks of whole row blocks that fit it, never less than one block, in a
#: per-thread workspace reused across chunks and calls; so the budget bounds
#: what each thread retains, not only what one call touches.  2 MiB was
#: chosen by a sweep (DESIGN.md, "Streaming chunks and the per-thread
#: workspace").
DEFAULT_WORKSPACE_BYTES = 2 * 1024 * 1024

#: The budget of a call that names none; :func:`set_workspace_bytes` (via
#: :func:`repro.runtime.configure`) sets it.
_workspace_bytes = DEFAULT_WORKSPACE_BYTES

#: Byte alignment of every workspace view.
_ALIGN = 64

#: Distinct workspace requests (signature, segment, chunk rows) whose views
#: a thread keeps; past this many its view table starts over.
_VIEW_REQUESTS = 256


@dataclass(frozen=True)
class FilterBundle:
    """Pre-transformed filter operands for one weight version.

    ``u`` maps each Winograd scheme ``(n, r)`` in the plan to the transform
    ``U[k, f, ic, oc] = sum_p G[k, p] w[oc, f, p, ic]`` (C-contiguous, so
    ``U.reshape(alpha, FH*IC, OC)`` is the full-depth contraction operand
    as a view); ``gemm_operand`` is the folded ``(FH*FW*IC, OC)`` matrix of
    a GEMM segment (the §5.5 tail, or every column of a GEMM signature),
    ``None`` for a plan without one.
    """

    u: dict[SchemeKey, np.ndarray]
    gemm_operand: np.ndarray | None

    @property
    def transformed_filter_bytes(self) -> int:
        """Memory held by the pre-computed transforms (the §6.1.2 trade)."""
        return sum(arr.nbytes for arr in self.u.values())


def build_filter_bundle(
    w: np.ndarray, schemes: Iterable[SchemeKey], dtype: np.dtype, *, gemm: bool
) -> FilterBundle:
    """Compute the :class:`FilterBundle` of ``w`` for the given schemes.

    ``gemm`` says whether the plan has a GEMM segment, and so whether the
    bundle holds the folded operand.  Shared by :class:`ConvExecutable` and
    the frozen-inference callers; the transform itself is
    :func:`~repro.core.transforms.filter_transform`, the legacy path's too.
    Every build counts one ``runtime.filter_cache.misses``; every call that
    runs on a cached or caller-held bundle counts a hit.
    """
    counter_add("runtime.filter_cache.misses")
    w = np.asarray(w, dtype=dtype)
    u: dict[SchemeKey, np.ndarray] = {}
    columns = None  # every scheme of a plan shares r, so one copy serves all
    for key in schemes:
        if key in u:
            continue
        if columns is None:
            columns = filter_columns(w)
        u[key] = filter_transform(winograd_matrices(*key, dtype=dtype.name).G, columns)
    return FilterBundle(u=u, gemm_operand=rowblocks.fold_filters(w) if gemm else None)


def _flat_bits(w: np.ndarray) -> np.ndarray:
    """``w`` as a flat unsigned-integer view of its bit patterns.

    Comparing these instead of the floats makes equality exact: ``-0.0``
    and ``+0.0`` differ, and a NaN equals only the same NaN payload.
    """
    return w.view(np.dtype(f"u{w.dtype.itemsize}")).reshape(-1)


@dataclass(frozen=True, eq=False)
class _FilterSlot:
    """One filter-cache entry: a bundle and what it was built from.

    A versioned slot matches its caller-named ``version``; an unversioned
    slot (``version is None``) matches weights whose bits equal ``bits``,
    its private copy of the source weights.
    """

    version: object
    bits: np.ndarray | None
    bundle: FilterBundle


def compiled_plan(sig: ConvSignature) -> ConvPlan:
    """The :class:`~repro.core.planner.ConvPlan` an executable of ``sig`` runs.

    A real plan (batch is irrelevant to it) so the static sanitizer and the
    perf model audit exactly what the runtime runs.  A Winograd signature
    gets the §5.5 segmentation of ``OW``; a GEMM signature one GEMM segment
    over every column, the tail's arithmetic at full width.
    """
    shape = ConvShape(
        batch=1, ih=sig.ih, iw=sig.iw, ic=sig.ic, oc=sig.oc,
        fh=sig.fh, fw=sig.fw, ph=sig.ph, pw=sig.pw, stride=1,
    )
    if sig.algorithm == "gemm":
        return ConvPlan(
            shape, "gemm", segments=(Segment(kernel=GEMM, start=0, width=sig.ow),),
            reason="runtime-compiled im2col GEMM (repro.runtime.conv_engine)",
        )
    primary = get_kernel(sig.alpha, sig.fw, sig.variant)
    return ConvPlan(
        shape,
        "im2col-winograd",
        primary=primary,
        segments=tuple(plan_width_segments(sig.ow, sig.fw, primary=primary)),
        reason=f"runtime-compiled unit-stride width-{sig.fw} convolution",
    )


@dataclass(frozen=True)
class _WinogradSegment:
    """Compiled state of one Winograd-owned segment."""

    seg: Segment
    n: int
    r: int
    alpha: int
    num_tiles: int
    scheme: SchemeKey
    kernel_name: str
    # Gather descriptor: padded-region bounds covering all FH filter rows.
    row_lo: int
    nrows: int
    col_lo: int
    ncols: int
    interior: bool


@dataclass(frozen=True)
class _GemmSegment:
    """Compiled state of a GEMM segment: the §5.5 tail, or every column of a
    GEMM signature."""

    seg: Segment


@dataclass(frozen=True)
class _Task:
    """One unit of dispatch: a segment restricted to a batch chunk."""

    state: _WinogradSegment | _GemmSegment
    n0: int
    n1: int
    first_chunk: bool


class ConvExecutable:
    """The compiled, reusable form of one conv signature."""

    def __init__(self, sig: ConvSignature) -> None:
        self.sig = sig
        self.dtype = np.dtype(sig.dtype)
        self.oh, self.ow = sig.oh, sig.ow
        self.plan = compiled_plan(sig)
        self.mats: dict[SchemeKey, TransformMatrices] = {}
        self._states: list[_WinogradSegment | _GemmSegment] = []
        for seg in self.plan.segments:
            if seg.is_gemm:
                self._states.append(_GemmSegment(seg=seg))
                continue
            spec = seg.kernel.spec  # type: ignore[union-attr]
            key = (spec.n, spec.r)
            if key not in self.mats:
                self.mats[key] = winograd_matrices(spec.n, spec.r, dtype=self.dtype.name)
            num_tiles = seg.width // spec.n
            row_lo = -sig.ph
            nrows = self.oh + sig.fh - 1
            col_lo = seg.start - sig.pw
            ncols = (num_tiles - 1) * spec.n + spec.alpha
            self._states.append(
                _WinogradSegment(
                    seg=seg,
                    n=spec.n,
                    r=spec.r,
                    alpha=spec.alpha,
                    num_tiles=num_tiles,
                    scheme=key,
                    kernel_name=seg.name,
                    row_lo=row_lo,
                    nrows=nrows,
                    col_lo=col_lo,
                    ncols=ncols,
                    interior=(
                        0 <= row_lo
                        and row_lo + nrows <= sig.ih
                        and 0 <= col_lo
                        and col_lo + ncols <= sig.iw
                    ),
                )
            )
        self._schemes: tuple[SchemeKey, ...] = tuple(self.mats)
        self._gemm = any(isinstance(st, _GemmSegment) for st in self._states)
        # Filter-cache slots, least recently used first.
        self._filters: list[_FilterSlot] = []
        self._flock = threading.Lock()
        size = sig.oc * sig.fh * sig.fw * sig.ic
        self._sample = np.linspace(0, size - 1, min(size, _SAMPLE_POINTS), dtype=np.intp)

    # -- filter-transform cache ---------------------------------------------

    def _check_filters(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=self.dtype)
        if w.shape != (self.sig.oc, self.sig.fh, self.sig.fw, self.sig.ic):
            raise ValueError(
                f"filter shape {w.shape} does not match signature "
                f"{(self.sig.oc, self.sig.fh, self.sig.fw, self.sig.ic)}"
            )
        return w

    def build_bundle(self, w: np.ndarray) -> FilterBundle:
        """Transform ``w`` for this plan's schemes, bypassing the cache.

        For callers that hold the bundle themselves (frozen layers): the
        result is passed back as ``bundle=`` on every call.
        """
        return build_filter_bundle(
            self._check_filters(w), self._schemes, self.dtype, gemm=self._gemm
        )

    def filter_bundle(self, w: np.ndarray, *, version: object = None) -> FilterBundle:
        """Pre-transformed operands for ``w``, from a small LRU cache.

        ``version`` names the weights for callers that track their identity
        themselves.  Without it the weights are matched by content: each
        slot keeps a copy of its source weights and ``w`` hits only a slot
        it equals bit for bit, so in-place optimizer updates miss once per
        step and repeated calls on unchanged weights hit.  A cheap sampled
        compare rejects non-matching slots first; the full compare runs on
        a snapshot outside the lock.
        """
        w = self._check_filters(w)
        with self._flock:
            slots = tuple(self._filters)
        # Most recently used first.
        if version is not None:
            bits = None
            found = next((s for s in reversed(slots) if s.version == version), None)
        else:
            bits = _flat_bits(w)
            found = next(
                (s for s in reversed(slots) if s.bits is not None and self._same(s.bits, bits)),
                None,
            )
        if found is not None:
            with self._flock:
                if found in self._filters:
                    self._filters.remove(found)
                    self._filters.append(found)
            counter_add("runtime.filter_cache.hits")
            return found.bundle
        bundle = build_filter_bundle(w, self._schemes, self.dtype, gemm=self._gemm)
        slot = _FilterSlot(
            version=version, bits=None if bits is None else bits.copy(), bundle=bundle
        )
        with self._flock:
            self._filters.append(slot)
            while len(self._filters) > FILTER_CACHE_SLOTS:
                del self._filters[0]
                counter_add("runtime.filter_cache.evictions")
        return bundle

    def _same(self, stored: np.ndarray, bits: np.ndarray) -> bool:
        sample = self._sample
        return np.array_equal(stored[sample], bits[sample]) and np.array_equal(stored, bits)

    @property
    def cached_filter_versions(self) -> int:
        with self._flock:
            return len(self._filters)

    # -- execution ---------------------------------------------------------

    def __call__(
        self,
        x: np.ndarray,
        w: np.ndarray | None = None,
        *,
        version: object = None,
        bundle: FilterBundle | None = None,
        workspace_bytes: int | None = None,
    ) -> np.ndarray:
        """Run the compiled convolution on ``x`` (any batch size).

        Either ``w`` (filters, resolved through the filter-transform cache)
        or a pre-resolved ``bundle`` must be provided.  ``workspace_bytes``
        is this call's chunk budget (default: the process-wide one).
        """
        budget = (
            _workspace_bytes
            if workspace_bytes is None
            else check_workspace_bytes(workspace_bytes)
        )
        sig = self.sig
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"expected 4D input, got ndim {x.ndim}")
        if x.shape[1:] != (sig.ih, sig.iw, sig.ic):
            raise ValueError(
                f"input shape {x.shape[1:]} does not match compiled signature "
                f"{(sig.ih, sig.iw, sig.ic)}"
            )
        if bundle is None:
            if w is None:
                raise ValueError("either w or a FilterBundle is required")
            resolved: list[FilterBundle] = []
        else:
            counter_add("runtime.filter_cache.hits")
            resolved = [bundle]
        batch = x.shape[0]
        y = np.empty((batch, self.oh, self.ow, sig.oc), dtype=self.dtype)

        def get_bundle() -> FilterBundle:
            if not resolved:
                assert w is not None
                resolved.append(self.filter_bundle(w, version=version))
            return resolved[0]

        tasks = self._tasks(batch, budget)
        with span(
            "conv2d",
            engine="runtime",
            batch=batch,
            ih=sig.ih,
            iw=sig.iw,
            ic=sig.ic,
            oc=sig.oc,
            fh=sig.fh,
            fw=sig.fw,
            oh=self.oh,
            ow=self.ow,
            alpha=sig.alpha,
            variant=sig.variant,
            segments=len(tasks),
            plan_segments=len(self._states),
        ):
            counter_add("conv.calls")
            counter_add(
                "conv.flops",
                2 * batch * sig.oc * self.oh * self.ow * sig.fh * sig.fw * sig.ic,
            )
            counter_add("runtime.exec.calls")
            for task in tasks:
                self._run_task(task, x, y, get_bundle)
        return y

    def _row_bytes(self, st: _WinogradSegment | _GemmSegment) -> int:
        """Per-batch-row intermediate bytes of one segment.

        Winograd: gathered region + V + P (+ m, y slice); GEMM: the
        row-blocked im2col operand (its pad rows shared out over a block's
        images) + output.
        """
        sig = self.sig
        if isinstance(st, _GemmSegment):
            r = self.oh * st.seg.width
            rows = -(-rowblocks.block_rows(r) // rowblocks.block_images(r))
            return self.dtype.itemsize * (rows * sig.fh * sig.fw * sig.ic + r * sig.oc)
        return self.dtype.itemsize * (
            st.nrows * st.ncols * sig.ic
            + st.alpha * sig.fh * self.oh * st.num_tiles * (sig.ic + sig.oc)
            + 2 * st.alpha * self.oh * st.num_tiles * sig.oc
        )

    def _tasks(self, batch: int, workspace_bytes: int) -> list[_Task]:
        """Split each Winograd segment into bounded-workspace batch chunks.

        Chunks hold whole row blocks (a multiple of the segment's
        :func:`~repro.core.rowblocks.block_images`), so every chunk runs
        exactly the blocks the unchunked call would and its bits match.  A
        GEMM segment (the §5.5 tail, or every column of a GEMM signature)
        runs as one task over the whole batch.
        """
        tasks: list[_Task] = []
        for st in self._states:
            if isinstance(st, _GemmSegment):
                tasks.append(_Task(st, 0, batch, True))
                continue
            rows = max(1, workspace_bytes // max(self._row_bytes(st), 1))
            per_block = rowblocks.block_images(self.oh * st.num_tiles)
            rows = min(max(1, rows // per_block) * per_block, batch)
            for i, n0 in enumerate(range(0, batch, rows)):
                tasks.append(_Task(st, n0, min(n0 + rows, batch), i == 0))
        return tasks

    def _run_task(
        self,
        task: _Task,
        x: np.ndarray,
        y: np.ndarray,
        get_bundle: Callable[[], FilterBundle],
    ) -> None:
        st = task.state
        if isinstance(st, _GemmSegment):
            self._run_gemm(st, x, y, get_bundle)
        else:
            self._run_winograd(st, x, y, get_bundle, task)

    def _run_winograd(
        self,
        st: _WinogradSegment,
        x: np.ndarray,
        y: np.ndarray,
        get_bundle: Callable[[], FilterBundle],
        task: _Task,
    ) -> None:
        sig = self.sig
        seg = st.seg
        n0, n1 = task.n0, task.n1
        nc = n1 - n0
        fh, ic, oc = sig.fh, sig.ic, sig.oc
        alpha, num_tiles = st.alpha, st.num_tiles
        mats = self.mats[st.scheme]
        rows_per_image = self.oh * num_tiles
        m_rows = nc * rows_per_image
        v_shape = rowblocks.blocked_shape((alpha,), nc, fh * ic, rows_per_image)
        nb, mb = v_shape[1], v_shape[2]
        # The output transform reads M as one contiguous (alpha, m_rows * OC)
        # matrix: the blocked product itself when it holds image rows only,
        # else a compact copy in the workspace.  A strided view of image rows would
        # make the transform GEMM copy its operand into a fresh array.
        compact = m_rows != nb * mb
        tiles_shape = (alpha, nc, st.nrows, num_tiles, ic)
        region_shape = None if st.interior else (nc, st.nrows, st.ncols, ic)
        # Three slots, each reused by stages that run one after another.
        (tiles, v, out), (region, vr, prod), (mc,) = _workspace(
            self.dtype,
            (tiles_shape, v_shape, (st.n, m_rows, oc)),
            (region_shape, tiles_shape, (alpha, nb, mb, oc)),
            ((alpha, m_rows, oc) if compact else None,),
        )
        with span(
            "segment",
            kind="winograd",
            kernel=seg.name,
            start=seg.start,
            width=seg.width,
            batch0=n0,
            batch1=n1,
        ) as seg_span:
            if task.first_chunk:
                batch = x.shape[0]
                counter_add("winograd.segments", kernel=st.kernel_name)
                counter_add(
                    "winograd.tiles", batch * self.oh * num_tiles, kernel=st.kernel_name
                )
                counter_add(
                    "winograd.elem_mul_flops",
                    2 * batch * self.oh * num_tiles * oc * alpha * fh * ic,
                    kernel=st.kernel_name,
                )
            with span("transform.filter", kernel=st.kernel_name):
                u = get_bundle().u[st.scheme]  # (alpha, FH, IC, OC)
            with span("gather", rows=st.nrows, cols=st.ncols, interior=st.interior):
                xb = x[n0:n1]
                if st.interior:
                    region = xb[
                        :, st.row_lo : st.row_lo + st.nrows, st.col_lo : st.col_lo + st.ncols, :
                    ]
                else:
                    _gather_padded_region(xb, st.row_lo, st.nrows, st.col_lo, st.ncols, region)
                sn, sh, sw, sc = region.strides
                # Every gathered region row as width tiles, each row once:
                # (N, rows, T, alpha, IC).  Filter rows share input rows
                # (row h of offset f+1 is row h+1 of offset f), so the input
                # transform below touches ``OH + FH - 1`` rows instead of
                # the ``FH * OH`` the per-fh gather re-reads.
                row_tiles = np.lib.stride_tricks.as_strided(
                    region,
                    shape=(nc, st.nrows, num_tiles, alpha, ic),
                    strides=(sn, sh, sw * st.n, sw, sc),
                    writeable=False,
                )
                if task.first_chunk:
                    # Logical gather volume for the whole segment (all FH
                    # rows, full batch) — gated like the winograd.* counters
                    # so the totals match the legacy path and do not drift
                    # with workspace chunking.
                    counter_add("gather.calls", fh)
                    counter_add(
                        "gather.bytes",
                        fh
                        * x.shape[0]
                        * self.oh
                        * num_tiles
                        * alpha
                        * ic
                        * self.dtype.itemsize,
                    )
            with span("transform.input", kernel=st.kernel_name):
                # VR[k, n, row, t, c] = sum_a DT[k, a] row_tiles[n, row, t, a, c]
                # — a dot over ``a`` per element, computed once per input
                # row: the legacy path's transposed copy and GEMM, into the
                # workspace.
                tiles[...] = row_tiles.transpose(3, 0, 1, 2, 4)
                rowblocks.dot(mats.DT, tiles.reshape(alpha, -1), out=vr.reshape(alpha, -1))
                sk, svn, svh, svt, svc = vr.strides
                # V[k, (n, h, t), (f, c)] = VR[k, n, h + f, t, c], written
                # once, block by block, into the row-blocked contraction
                # operand (alpha, blocks, Mb, FH*IC).
                images = np.lib.stride_tricks.as_strided(
                    vr,
                    shape=(alpha, nc, self.oh, num_tiles, fh, ic),
                    strides=(sk, svn, svh, svt, svh, svc),
                    writeable=False,
                )
                rowblocks.zero_pad_rows(v, nc, rows_per_image)
                for b, i0, i1 in rowblocks.blocks(nc, rows_per_image):
                    dst = v[:, b, : (i1 - i0) * rows_per_image]
                    dst.reshape(alpha, i1 - i0, self.oh, num_tiles, fh, ic)[...] = (
                        images[:, i0:i1]
                    )
            with span("accumulate", kernel=st.kernel_name):
                # One GEMM per alpha state over the full (fh, ic) depth.
                rowblocks.blocked_product(v, u.reshape(alpha, fh * ic, oc), out=prod)
                if compact:
                    self._unblock(prod, mc, nc, rows_per_image)
                m = mc if compact else prod
            with span("transform.output", kernel=st.kernel_name):
                # y[j] = sum_k AT[j, k] M[k]: the legacy path's GEMM, into
                # the workspace, then one transposed copy of the
                # (n, image rows, OC) product into y's tiles.
                rowblocks.dot(
                    mats.AT, m.reshape(alpha, -1)[:, : m_rows * oc], out=out.reshape(st.n, -1)
                )
                # Splitting the width axis into (tile, column) is always a view.
                dst = y[n0:n1, :, seg.start : seg.start + seg.width, :].reshape(
                    nc, self.oh, num_tiles, st.n, oc
                )
                dst[...] = out.reshape(st.n, nc, self.oh, num_tiles, oc).transpose(
                    1, 2, 3, 0, 4
                )
            seg_span.set(tiles=self.oh * num_tiles * nc)

    @staticmethod
    def _unblock(prod: np.ndarray, m: np.ndarray, images: int, rows_per_image: int) -> None:
        """Copy the image rows of a blocked product into ``m`` in image order."""
        r = rows_per_image
        for b, i0, i1 in rowblocks.blocks(images, r):
            m[:, i0 * r : i1 * r] = prod[:, b, : (i1 - i0) * r]

    def _run_gemm(
        self,
        st: _GemmSegment,
        x: np.ndarray,
        y: np.ndarray,
        get_bundle: Callable[[], FilterBundle],
    ) -> None:
        sig = self.sig
        seg = st.seg
        batch = x.shape[0]
        r = self.oh * seg.width
        a_shape = rowblocks.blocked_shape((), batch, sig.fh * sig.fw * sig.ic, r)
        nb, mb = a_shape[:2]
        # Every block holds k whole images and no pad rows, and the segment
        # spans y's rows: the blocked product is y itself.
        direct = seg.width == self.ow and nb * mb == batch * r
        slab_shape = im2col_slab_shape(
            x.shape, sig.fh, sig.fw, sig.ph, sig.pw, col0=seg.start, width=seg.width
        )
        # The slab is read only while ``a`` is built, before ``prod`` is written.
        (a,), (slab, prod) = _workspace(
            self.dtype, (a_shape,), (slab_shape, None if direct else (nb, mb, sig.oc))
        )
        with span("segment", kind="gemm", start=seg.start, width=seg.width):
            if sig.algorithm == "winograd":
                counter_add("gemm.tail_segments")
                counter_add("gemm.tail_columns", seg.width)
            rowblocks.conv_operand(
                a, x, sig.fh, sig.fw, sig.ph, sig.pw, width=seg.width, col0=seg.start,
                slab=slab,
            )
            operand = get_bundle().gemm_operand
            if operand is None:
                raise ValueError("this plan has a GEMM segment; its bundle needs gemm=True")
            if direct:
                rowblocks.blocked_product(a, operand, out=y.reshape(nb, mb, sig.oc))
                return
            rowblocks.blocked_product(a, operand, out=prod)
            dst = y[:, :, seg.start : seg.start + seg.width, :]
            for b, i0, i1 in rowblocks.blocks(batch, r):
                dst[i0:i1] = prod[b, : (i1 - i0) * r].reshape(
                    i1 - i0, self.oh, seg.width, sig.oc
                )


def check_workspace_bytes(value: object) -> int:
    """``value`` as a chunk budget: an integer >= 1, else ``ValueError``.

    ``bool`` is an ``int`` but no byte count, so it is rejected too.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"workspace_bytes must be an integer >= 1, got {value!r}")
    return int(value)


def set_workspace_bytes(value: object) -> None:
    """Set the process-wide chunk budget (checked as above)."""
    global _workspace_bytes
    _workspace_bytes = check_workspace_bytes(value)


def _workspace(
    dtype: np.dtype, *slots: tuple[tuple[int, ...] | None, ...]
) -> list[list[Any]]:
    """``dtype`` views of the given shapes into this thread's workspace.

    Arrays of one slot share memory (the caller is done with each before
    it writes the next); slots never overlap.  A ``None`` shape yields
    ``None``.  The workspace grows to the largest request its thread has
    made and is reused by every later chunk and call, so a warm call
    allocates only its output.  The views of each request are kept until
    the workspace grows, so a repeated request builds none.
    """
    key = (dtype, slots)
    buf = getattr(_ARENA, "buf", None)
    if buf is not None:
        views = _ARENA.views.get(key)
        if views is not None:
            return views
    item = dtype.itemsize
    nbytes = [[0 if s is None else math.prod(s) * item for s in slot] for slot in slots]
    sizes = [-(-max(slot) // _ALIGN) * _ALIGN for slot in nbytes]
    need = sum(sizes) + _ALIGN
    if buf is None or buf.nbytes < need:
        buf = np.empty(need, dtype=np.uint8)
        _ARENA.buf, _ARENA.views = buf, {}
        gauge_set("runtime.workspace.bytes", need, thread=threading.current_thread().name)
    off = -buf.ctypes.data % _ALIGN
    views = []
    for slot, counts, size in zip(slots, nbytes, sizes):
        views.append(
            [
                None if s is None else buf[off : off + n].view(dtype).reshape(s)
                for s, n in zip(slot, counts)
            ]
        )
        off += size
    if len(_ARENA.views) >= _VIEW_REQUESTS:
        _ARENA.views.clear()
    _ARENA.views[key] = views
    return views
