"""Tests for the fused Im2col-Winograd convolution (repro.core.fused)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.direct import conv2d_direct
from repro.core.fused import conv2d_im2col_winograd
from repro.core.reference import conv2d_winograd_reference

from .conftest import TOL_BY_ALPHA, rel_err


class TestAgainstFP64Direct:
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_all_filter_widths(self, rng, r):
        """The headline claim: 2-9 filter widths, r x r filters, floor(r/2) pad."""
        x = rng.standard_normal((2, 12, 13, 6)).astype(np.float32)
        w = rng.standard_normal((5, r, r, 6)).astype(np.float32)
        got = conv2d_im2col_winograd(x, w)
        want = conv2d_direct(x, w, ph=r // 2, pw=r // 2, dtype=np.float64)
        alpha = 8 if r <= 6 else 16  # default_alpha_for_width
        assert rel_err(got, want) < TOL_BY_ALPHA[alpha]

    @pytest.mark.parametrize("alpha,r", [(4, 2), (4, 3), (8, 5), (16, 3), (16, 7), (16, 9)])
    def test_explicit_alpha(self, rng, alpha, r):
        x = rng.standard_normal((1, 10, 11, 4)).astype(np.float32)
        w = rng.standard_normal((3, r, r, 4)).astype(np.float32)
        got = conv2d_im2col_winograd(x, w, alpha=alpha)
        want = conv2d_direct(x, w, ph=r // 2, pw=r // 2, dtype=np.float64)
        assert rel_err(got, want) < TOL_BY_ALPHA[alpha]

    @pytest.mark.parametrize("variant", ["base", "ruse", "c64"])
    def test_variants_numerically_identical(self, rng, variant):
        """ruse/c64 change blocking on the GPU, never arithmetic."""
        c = 64 if variant == "c64" else 4  # c64 blocks 64 channels (§5.6)
        x = rng.standard_normal((1, 9, 16, c)).astype(np.float32)
        w = rng.standard_normal((c, 9, 9, c)).astype(np.float32)
        base = conv2d_im2col_winograd(x, w, alpha=16, variant="base")
        other = conv2d_im2col_winograd(x, w, alpha=16, variant=variant)
        np.testing.assert_array_equal(base, other)

    @pytest.mark.parametrize("legacy", [False, True])
    def test_c64_needs_channel_multiples_of_64(self, rng, legacy):
        """Both paths reject c64 off its §5.6 channel contract, identically."""
        x = rng.standard_normal((1, 9, 16, 4)).astype(np.float32)
        w = rng.standard_normal((64, 9, 9, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="c64.*IC=4, OC=64"):
            conv2d_im2col_winograd(x, w, alpha=16, variant="c64", legacy=legacy)

    def test_rectangular_filters(self, rng):
        """FH and FW are decoupled — only FW is Winograd-constrained (§4.2)."""
        x = rng.standard_normal((2, 11, 12, 3)).astype(np.float32)
        w = rng.standard_normal((4, 5, 3, 3)).astype(np.float32)
        got = conv2d_im2col_winograd(x, w, ph=2, pw=1)
        want = conv2d_direct(x, w, ph=2, pw=1, dtype=np.float64)
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    def test_fh_equals_1(self, rng):
        """Pure 1D convolution along width."""
        x = rng.standard_normal((2, 6, 17, 3)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        got = conv2d_im2col_winograd(x, w, ph=0, pw=1)
        want = conv2d_direct(x, w, ph=0, pw=1, dtype=np.float64)
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    @given(
        ow_extra=st.integers(0, 11),
        pw=st.integers(0, 2),
        r=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_boundary_residue(self, ow_extra, pw, r):
        """OW sweeps all residues mod n — the §5.5 segmentation must cover
        every case exactly (GEMM tail included)."""
        if pw >= r:
            pw = r - 1  # padding must stay below the filter extent
        rng = np.random.default_rng(ow_extra * 100 + pw * 10 + r)
        iw = 12 + ow_extra
        x = rng.standard_normal((1, 7, iw, 3)).astype(np.float32)
        w = rng.standard_normal((2, r, r, 3)).astype(np.float32)
        got = conv2d_im2col_winograd(x, w, ph=r // 2, pw=pw)
        want = conv2d_direct(x, w, ph=r // 2, pw=pw, dtype=np.float64)
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    def test_padding_beyond_half_filter(self, rng):
        """Kernels are specialised for pw <= floor(r/2) but stay correct up
        to pw < r (implicit-padding gather)."""
        x = rng.standard_normal((1, 8, 9, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        got = conv2d_im2col_winograd(x, w, ph=2, pw=2)
        want = conv2d_direct(x, w, ph=2, pw=2, dtype=np.float64)
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    def test_float64_mode(self, rng):
        x = rng.standard_normal((1, 6, 8, 2))
        w = rng.standard_normal((2, 3, 3, 2))
        got = conv2d_im2col_winograd(x, w, dtype=np.float64)
        want = conv2d_direct(x, w, ph=1, pw=1, dtype=np.float64)
        assert got.dtype == np.float64
        assert rel_err(got, want) < 1e-12


class TestFloat16Extension:
    """§7: "the decomposition method ... may be applicable to other data
    types" — FP16 works for alpha <= 8 and is rejected for alpha = 16,
    where transform entries (up to 1.6e4) exceed half precision's range."""

    def test_alpha8_fp16_accurate_to_half_eps(self, rng):
        x = rng.standard_normal((1, 8, 12, 4)).astype(np.float16)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float16)
        got = conv2d_im2col_winograd(x, w, dtype=np.float16)
        want = conv2d_direct(x, w, ph=1, pw=1, dtype=np.float64)
        assert got.dtype == np.float16
        assert rel_err(got, want) < 3e-2  # ~30x fp16 eps

    def test_alpha4_fp16(self, rng):
        x = rng.standard_normal((1, 6, 10, 3)).astype(np.float16)
        w = rng.standard_normal((2, 2, 2, 3)).astype(np.float16)
        got = conv2d_im2col_winograd(x, w, alpha=4, dtype=np.float16)
        want = conv2d_direct(x, w, ph=1, pw=1, dtype=np.float64)
        assert rel_err(got, want) < 3e-2

    def test_alpha16_fp16_rejected(self, rng):
        x = rng.standard_normal((1, 12, 16, 4)).astype(np.float16)
        w = rng.standard_normal((2, 9, 9, 4)).astype(np.float16)
        with pytest.raises(ValueError, match="float16"):
            conv2d_im2col_winograd(x, w, alpha=16, dtype=np.float16)


class TestAgainstTileLoopReference:
    @pytest.mark.parametrize("n,r", [(6, 3), (4, 5), (2, 3)])
    def test_bitwise_similar_path(self, rng, n, r):
        """The vectorised kernel and the loop reference share transform
        matrices; agreement is tight (reassociation only)."""
        x = rng.standard_normal((1, 5, 13, 3)).astype(np.float32)
        w = rng.standard_normal((2, r, r, 3)).astype(np.float32)
        alpha = n + r - 1
        got = conv2d_im2col_winograd(x, w, alpha=alpha)
        want = conv2d_winograd_reference(x, w, n=n)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestValidation:
    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_im2col_winograd(
                rng.standard_normal((1, 5, 5, 3)).astype(np.float32),
                rng.standard_normal((2, 3, 3, 4)).astype(np.float32),
            )

    def test_non4d(self, rng):
        with pytest.raises(ValueError, match="4D"):
            conv2d_im2col_winograd(
                rng.standard_normal((5, 5, 3)).astype(np.float32),
                rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
            )

    def test_padding_too_large(self, rng):
        with pytest.raises(ValueError, match="padding"):
            conv2d_im2col_winograd(
                rng.standard_normal((1, 5, 5, 3)).astype(np.float32),
                rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
                ph=1,
                pw=3,
            )

    def test_output_dtype(self, rng):
        x = rng.standard_normal((1, 5, 6, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        assert conv2d_im2col_winograd(x, w).dtype == np.float32
