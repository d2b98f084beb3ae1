"""Batch-composition invariance, swept over models and random conv shapes.

The serving contract: any split of a batch returns the bits of the whole
batch, so a request's response never depends on which other requests it
was coalesced with.  Every BLAS contraction runs in signature-fixed row
blocks (:mod:`repro.core.rowblocks`) to make that true by construction;
this sweep checks it where hand-picked shapes would not, at odd widths,
non-power-of-two channel counts, §5.5 GEMM tails and a single image.

The same shapes also pin the two other exactness contracts the row blocks
carry: the compiled runtime equals the legacy interpreted path, and
workspace chunking never changes bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import runtime
from repro.core.fused import conv2d_im2col_winograd
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.serve import ModelRegistry

ROWS = 6
SPLITS = (1, 2, 3)


def _split_outputs(fn, x: np.ndarray, size: int) -> np.ndarray:
    return np.concatenate([fn(x[i : i + size]) for i in range(0, x.shape[0], size)])


def _conv_cases() -> list[tuple[int, int, int]]:
    """60 seeded ``(side, IC, OC)`` draws for a 3x3, pad-1 conv."""
    rng = np.random.default_rng(20240917)
    return [
        (int(rng.integers(2, 20)), int(rng.integers(1, 300)), int(rng.integers(1, 130)))
        for _ in range(60)
    ]


CONV_CASES = _conv_cases()


def _operands(case: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    side, ic, oc = case
    rng = np.random.default_rng(case)
    x = rng.standard_normal((ROWS, side, side, ic), dtype=np.float32)
    w = rng.standard_normal((oc, 3, 3, ic), dtype=np.float32)
    return x, w


@pytest.fixture(autouse=True)
def _fresh_runtime():
    runtime.clear_cache()
    yield
    runtime.clear_cache()


def test_conv_cases_cover_the_hard_shapes():
    """The sample holds odd output widths, GEMM tails and deep channels."""
    sides = [side for side, _, _ in CONV_CASES]
    assert any(side % 2 for side in sides)
    tails = 0
    for case in CONV_CASES:
        x, w = _operands(case)
        sig = runtime.ConvSignature.for_operands(x, w, ph=1, pw=1)
        tails += any(seg.is_gemm for seg in runtime.get_executable(sig).plan.segments)
    assert tails >= 10
    assert max(ic for _, ic, _ in CONV_CASES) > 256


@pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "x".join(map(str, c)))
def test_conv_any_split_compiled_legacy_and_dispatch(case):
    x, w = _operands(case)
    whole = runtime.convolve(x, w)
    for size in SPLITS:
        np.testing.assert_array_equal(
            _split_outputs(lambda part: runtime.convolve(part, w), x, size),
            whole,
            err_msg=f"{size}-row split",
        )
    np.testing.assert_array_equal(conv2d_im2col_winograd(x, w, legacy=True), whole)
    np.testing.assert_array_equal(
        runtime.convolve(x, w, workspace_bytes=1), whole, err_msg="workspace_bytes=1"
    )


@pytest.mark.parametrize("width", [0.125, 0.25])
@pytest.mark.parametrize("image", [28, 32, 36])
@pytest.mark.parametrize("arch", ["resnet18", "vgg16"])
def test_model_any_split(arch, image, width):
    entry = ModelRegistry().register(arch, arch=arch, image=image, width_mult=width)
    x = np.random.default_rng(image).standard_normal((ROWS, image, image, 3), dtype=np.float32)
    whole = entry.infer_rows(x)
    for size in SPLITS:
        np.testing.assert_array_equal(
            _split_outputs(entry.infer_rows, x, size), whole, err_msg=f"{size}-row split"
        )


def test_mixed_engine_model_any_split_legacy_and_dispatch():
    """ResNet-18 at width 0.5: the engine rule runs layer3-4 on Winograd and
    the other convs (and every strided one) as row-blocked GEMMs.  Any
    split, the legacy path and a one-byte workspace budget all give the same
    bits."""
    entry = ModelRegistry().register("mixed", arch="resnet18", image=32, width_mult=0.5)
    assert 0 < entry.winograd_convs < entry.total_convs
    x = np.random.default_rng(5).standard_normal((ROWS, 32, 32, 3), dtype=np.float32)
    whole = entry.infer_rows(x)
    for size in SPLITS:
        np.testing.assert_array_equal(
            _split_outputs(entry.infer_rows, x, size), whole, err_msg=f"{size}-row split"
        )
    with runtime.force_legacy():
        np.testing.assert_array_equal(entry.infer_rows(x), whole, err_msg="legacy")
    runtime.configure(workspace_bytes=1)
    try:
        np.testing.assert_array_equal(entry.infer_rows(x), whole, err_msg="workspace_bytes=1")
    finally:
        runtime.configure(workspace_bytes=DEFAULT_WORKSPACE_BYTES)
