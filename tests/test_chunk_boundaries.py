"""The chunk-boundary contract over the kernel envelope, as a seeded property.

Every registered base kernel Γα(n, r) with r in 2..9, batches of 1 to 9
images and the §5.5 width edges (OW below the tile width n, OW = r - 1,
and an OW that leaves a GEMM tail) run through the compiled runtime with a
one-byte workspace budget, so every Winograd segment streams one row block
per chunk.  Each
generated case must give the legacy oracle's bits whole, split into any
batch parts, one image at a time and on a two-worker pool.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.core.fused import conv2d_im2col_winograd
from repro.core.kernels import registered_kernels
from repro.runtime import ExecutionConfig

KERNELS = [k for k in registered_kernels() if k.variant == "base"]

#: One row block per chunk: the smallest budget there is.
CHUNKED = ExecutionConfig(workspace_bytes=1)


@pytest.fixture(scope="module")
def pooled():
    cfg = ExecutionConfig(threads=2, workspace_bytes=1)
    yield cfg
    cfg.shutdown()


@st.composite
def cases(draw: st.DrawFn) -> dict:
    kernel = draw(st.sampled_from(KERNELS))
    n, r = kernel.n, kernel.r
    edge = draw(st.sampled_from(["below_n", "r_minus_1", "tail"]))
    if edge == "below_n":
        ow = draw(st.integers(1, n - 1))
    elif edge == "r_minus_1":
        ow = r - 1
    else:
        ow = n * draw(st.integers(1, 3)) + draw(st.integers(1, n - 1))
    pw = draw(st.integers(0, (r - 1) // 2))
    fh = draw(st.integers(1, r))
    return {
        "alpha": kernel.alpha,
        "r": r,
        "fh": fh,
        "ph": (fh - 1) // 2,
        "pw": pw,
        "iw": ow + r - 1 - 2 * pw,
        "oh": draw(st.integers(1, 12)),
        "batch": draw(st.integers(1, 9)),
        "ic": draw(st.integers(1, 6)),
        "oc": draw(st.integers(1, 5)),
        "cuts": draw(st.lists(st.integers(1, 8), max_size=4)),
        "seed": draw(st.integers(0, 2**31)),
    }


def _chunks(x: np.ndarray, w: np.ndarray, g: dict) -> int | None:
    """Chunks of the most-chunked Winograd segment (None: a GEMM-only plan)."""
    sig = runtime.ConvSignature.for_operands(x, w, ph=g["ph"], pw=g["pw"], alpha=g["alpha"])
    tasks = runtime.get_executable(sig)._tasks(x.shape[0], CHUNKED)
    counts = Counter(t.state for t in tasks if not t.state.seg.is_gemm)
    return max(counts.values(), default=None)


def _check(x: np.ndarray, w: np.ndarray, g: dict, pooled: ExecutionConfig) -> None:
    def conv(part: np.ndarray, config: ExecutionConfig = CHUNKED) -> np.ndarray:
        return runtime.convolve(
            part, w, ph=g["ph"], pw=g["pw"], alpha=g["alpha"], config=config
        )

    batch = x.shape[0]
    want = conv2d_im2col_winograd(
        x, w, ph=g["ph"], pw=g["pw"], alpha=g["alpha"], legacy=True
    )
    np.testing.assert_array_equal(conv(x), want, err_msg="chunked serial vs legacy")
    singles = np.concatenate([conv(x[i : i + 1]) for i in range(batch)])
    np.testing.assert_array_equal(singles, want, err_msg="batch-1 serial")
    bounds = sorted({0, batch, *(c for c in np.cumsum(g["cuts"]) if c < batch)})
    parts = np.concatenate([conv(x[a:b]) for a, b in zip(bounds, bounds[1:])])
    np.testing.assert_array_equal(parts, want, err_msg=f"split at {bounds}")
    np.testing.assert_array_equal(conv(x, pooled), want, err_msg="threads=2")


#: One image, one output row, one tile and one channel: a single-column
#: transform GEMM, which BLAS would run as a matrix-vector product.
SINGLE_COLUMN = {
    "alpha": 8, "r": 3, "fh": 1, "ph": 0, "pw": 0, "iw": 5, "oh": 1, "batch": 2,
    "ic": 1, "oc": 1, "cuts": [], "seed": 0,
}


@given(cases())
@example(SINGLE_COLUMN)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_chunked_dispatch_matches_legacy_bit_for_bit(pooled, g):
    """compiled ≡ legacy, any batch split ≡ batch-1 serial, threads=2 ≡ serial,
    on the drawn geometry and, where that holds fewer row blocks, on one tall
    enough that a batch of three or more images streams through three or
    more chunks of a Winograd segment."""
    rng = np.random.default_rng(g["seed"])
    w = rng.standard_normal((g["oc"], g["fh"], g["r"], g["ic"]), dtype=np.float32)
    ih = g["oh"] + g["fh"] - 1 - 2 * g["ph"]
    while True:
        x = rng.standard_normal((g["batch"], ih, g["iw"], g["ic"]), dtype=np.float32)
        _check(x, w, g, pooled)
        chunks = _chunks(x, w, g)
        if chunks is None or chunks >= min(g["batch"], 3):
            break
        ih = max(ih + 4, 2 * ih)
