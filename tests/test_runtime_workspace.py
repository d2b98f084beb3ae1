"""The per-thread chunk workspace: a warm call allocates only its output,
and nothing a chunk leaves in the workspace reaches a later result."""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro import obs, runtime
from repro.baselines.gemm import conv2d_gemm
from repro.core.fused import conv2d_im2col_winograd
from repro.runtime import ExecutionConfig, executable

#: Allocation allowed beyond ``y`` on a warm call: Python objects, views and
#: the filter-cache compare, far below any chunk intermediate (the gathered
#: region of one image is 1 MiB on the shape below).
SLACK_BYTES = 256 * 1024


@pytest.fixture(autouse=True)
def _fresh_runtime():
    runtime.clear_cache()
    yield
    runtime.clear_cache()


def _operands(seed: int, batch: int, side: int, ch: int, r: int = 3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, side, side, ch), dtype=np.float32)
    w = rng.standard_normal((ch, r, r, ch), dtype=np.float32)
    return x, w


def _warm_peak(call) -> tuple[np.ndarray, int]:
    call()  # compile, transform the filters and grow every workspace
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        y = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return y, peak


@pytest.mark.parametrize("threads", [0, 2])
def test_warm_call_allocates_only_y(threads):
    """Γ8(6,3) at 8x64x64x64 streams eight one-image chunks and a
    Γ4(2,3) tail; warm, the only array a call allocates is ``y``."""
    x, w = _operands(0, 8, 64, 64)
    cfg = ExecutionConfig(threads=threads)
    try:
        sig = runtime.ConvSignature.for_operands(x, w, ph=1, pw=1, alpha=8)
        assert len(runtime.get_executable(sig)._tasks(8, cfg)) >= 8
        y, peak = _warm_peak(lambda: runtime.convolve(x, w, ph=1, pw=1, alpha=8, config=cfg))
    finally:
        cfg.shutdown()
    assert peak < y.nbytes + SLACK_BYTES, (peak, y.nbytes)
    want = conv2d_im2col_winograd(x, w, ph=1, pw=1, alpha=8, legacy=True)
    np.testing.assert_array_equal(y, want)


@pytest.mark.parametrize(
    "batch, side, ch",
    [
        (8, 32, 8),  # whole blocks: the product is written straight into y
        (3, 4, 16),  # four images per block, the last one short: a copy out
    ],
)
def test_warm_gemm_signature_allocates_only_y(batch, side, ch):
    """A conv the rule sends to GEMM borders its input in the workspace and
    allocates only ``y`` once warm."""
    x, w = _operands(4, batch, side, ch)
    assert runtime.conv_engine(ch, ch, 3, 3, side) == "gemm"
    y, peak = _warm_peak(lambda: runtime.convolve(x, w, ph=1, pw=1, algorithm="gemm"))
    assert peak < y.nbytes + SLACK_BYTES, (peak, y.nbytes)
    np.testing.assert_array_equal(y, conv2d_gemm(x, w, ph=1, pw=1))


def test_warm_gemm_tail_allocates_only_y():
    """61 columns run as ten Γ8(6,3) tiles and a one-column GEMM tail."""
    x, w = _operands(5, 8, 61, 64)
    sig = runtime.ConvSignature.for_operands(x, w, ph=1, pw=1, alpha=8)
    assert [seg.is_gemm for seg in runtime.get_executable(sig).plan.segments] == [False, True]
    y, peak = _warm_peak(lambda: runtime.convolve(x, w, ph=1, pw=1, alpha=8))
    assert peak < y.nbytes + SLACK_BYTES, (peak, y.nbytes)
    want = conv2d_im2col_winograd(x, w, ph=1, pw=1, alpha=8, legacy=True)
    np.testing.assert_array_equal(y, want)


def _poison_workspace() -> None:
    """Fill this thread's workspace with NaN bits (0xFF bytes)."""
    buf = getattr(executable._ARENA, "buf", None)
    if buf is not None:
        buf.fill(0xFF)


def test_stale_workspace_never_leaks():
    """One thread runs a large-chunk signature, a smaller one whose pad rows
    and padded strips sit elsewhere, then the large one again, with the
    workspace poisoned in between: every output equals the legacy oracle."""
    large = _operands(1, 7, 13, 12)  # 13x13: R = 26, two images per block
    small = _operands(2, 5, 6, 9, r=5)  # Γ8(4,5) tiles plus a GEMM tail
    sequence = [(large, 8), (small, 8), (large, 8), (small, 16)]
    cfg = ExecutionConfig(workspace_bytes=1)
    for (x, w), alpha in sequence:
        r = w.shape[2]
        want = conv2d_im2col_winograd(
            x, w, ph=r // 2, pw=r // 2, alpha=alpha, legacy=True
        )
        for config in (None, cfg):
            got = runtime.convolve(
                x, w, ph=r // 2, pw=r // 2, alpha=alpha, config=config
            )
            np.testing.assert_array_equal(got, want)
            _poison_workspace()


def test_workspace_gauge_reports_retained_bytes():
    """Growing a thread's workspace sets ``runtime.workspace.bytes`` for
    that thread; a warm call grows nothing."""
    x, w = _operands(3, 4, 20, 16)
    name = threading.current_thread().name
    executable._ARENA.buf = None
    with obs.capture():
        runtime.convolve(x, w)
        gauge = obs.get_registry().gauge("runtime.workspace.bytes")
        first = gauge.value(thread=name)
        assert first == executable._ARENA.buf.nbytes > 0
        runtime.convolve(x, w)
        assert gauge.value(thread=name) == first
