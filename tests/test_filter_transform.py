"""The §6.1.2 filter transform and the operands a filter bundle retains.

:func:`repro.core.transforms.filter_transform` is the one definition of
``U = G w`` that the compiled runtime and the legacy path both run.  Its
bits must equal the einsum formulation the reproduction started from, kept
here as the oracle, for every registered ``(n, r)``.  A bundle holds the
folded GEMM operand only when its plan has a GEMM segment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import runtime
from repro.core import rowblocks
from repro.core.kernels import registered_kernels
from repro.core.transforms import filter_columns, filter_transform, winograd_matrices
from repro.runtime import ConvSignature, build_filter_bundle

SCHEMES = sorted({(k.n, k.r) for k in registered_kernels(include_extended=True)})

#: (IC, OC): ones, odd sizes and a wide-by-narrow pair.
CHANNELS = [(1, 1), (1, 3), (3, 1), (7, 2), (5, 9), (33, 17), (128, 3)]


def einsum_transform(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The oracle: ``U[k, f, i, o] = sum_p G[k, p] w[o, f, p, i]`` by einsum."""
    return np.ascontiguousarray(np.einsum("kp,ofpi->kfio", g, w, optimize=True))


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


@pytest.mark.parametrize("n,r", SCHEMES, ids=[f"F{n}_{r}" for n, r in SCHEMES])
def test_transform_matches_einsum_bit_for_bit(n, r):
    g = winograd_matrices(n, r).G
    rng = np.random.default_rng(n * 100 + r)
    for fh in sorted({1, 2, r}):
        for ic, oc in CHANNELS:
            w = rng.standard_normal((oc, fh, r, ic), dtype=np.float32)
            got = filter_transform(g, filter_columns(w))
            want = einsum_transform(g, w)
            assert got.shape == want.shape == (n + r - 1, fh, ic, oc)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"{fh=} {ic=} {oc=}")


def test_float64_matches_einsum_bit_for_bit(rng):
    g = winograd_matrices(6, 3, dtype="float64").G
    w = rng.standard_normal((5, 3, 3, 7))
    got = filter_transform(g, filter_columns(w))
    np.testing.assert_array_equal(bits(got), bits(einsum_transform(g, w)))


def _executable(ow: int, *, ic: int = 4, oc: int = 3, algorithm: str = "winograd"):
    x = np.zeros((1, 5, ow, ic), dtype=np.float32)
    w = np.zeros((oc, 3, 3, ic), dtype=np.float32)
    return runtime.get_executable(
        ConvSignature.for_operands(x, w, ph=1, pw=1, alpha=8, algorithm=algorithm)
    )


class TestRetainedOperands:
    """What a bundle keeps besides ``U``: the folded operand, for GEMM plans only."""

    def test_winograd_only_plan_keeps_no_fold(self, rng):
        exe = _executable(12)  # two Γ8(6,3) tiles, no tail
        assert not any(seg.is_gemm for seg in exe.plan.segments)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        assert exe.build_bundle(w).gemm_operand is None
        assert exe.filter_bundle(w).gemm_operand is None

    @pytest.mark.parametrize(
        "ow,algorithm", [(7, "winograd"), (13, "gemm")], ids=["tail", "gemm-signature"]
    )
    def test_gemm_segment_keeps_the_fold(self, rng, ow, algorithm):
        exe = _executable(ow, algorithm=algorithm)
        assert any(seg.is_gemm for seg in exe.plan.segments)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        for bundle in (exe.build_bundle(w), exe.filter_bundle(w)):
            np.testing.assert_array_equal(bundle.gemm_operand, rowblocks.fold_filters(w))

    def test_schemes_share_one_columns_copy(self, rng, monkeypatch):
        """Two schemes of one filter width copy the filters into column
        order once."""
        from repro.runtime import executable

        copies = []
        real = executable.filter_columns
        monkeypatch.setattr(executable, "filter_columns", lambda w: copies.append(w) or real(w))
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        bundle = build_filter_bundle(w, [(6, 3), (2, 3)], w.dtype, gemm=False)
        assert len(bundle.u) == 2 and len(copies) == 1

    def test_tail_plan_rejects_a_bundle_without_the_fold(self, rng):
        exe = _executable(7)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        x = rng.standard_normal((1, 5, 7, 4)).astype(np.float32)
        bundle = build_filter_bundle(w, exe._schemes, w.dtype, gemm=False)
        with pytest.raises(ValueError, match="GEMM segment"):
            exe(x, bundle=bundle)
