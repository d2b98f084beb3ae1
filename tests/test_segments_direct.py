"""Direct tests of the segment executors (winograd_segment / gemm_segment).

The public API exercises these through the planner; testing them directly
pins down the per-segment contracts — offset handling, mats injection, and
the exact strip geometry of the GEMM tail.
"""

import numpy as np
import pytest

from repro.baselines import conv2d_direct
from repro.core.boundary import GEMM, Segment
from repro.core.fused import gemm_segment, winograd_segment
from repro.core.kernels import get_kernel
from repro.core.transforms import winograd_matrices

from .conftest import TOL_BY_ALPHA, rel_err


@pytest.fixture
def problem(rng):
    x = rng.standard_normal((2, 7, 20, 3)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    truth = conv2d_direct(x, w, ph=1, pw=1, dtype=np.float64)
    return x, w, truth


class TestWinogradSegment:
    def test_mid_tensor_offset(self, problem):
        """A segment starting at a non-zero column computes exactly those
        columns of the full convolution."""
        x, w, truth = problem
        seg = Segment(kernel=get_kernel(8, 3), start=6, width=12)
        got = winograd_segment(x, w, seg, ph=1, pw=1, oh=7)
        assert got.shape == (2, 7, 12, 4)
        assert rel_err(got, truth[:, :, 6:18, :]) < TOL_BY_ALPHA[8]

    def test_explicit_mats_injection(self, problem):
        """Callers may pre-build transform matrices (as the compiled
        runtime does); results are identical."""
        x, w, truth = problem
        seg = Segment(kernel=get_kernel(8, 3), start=0, width=18)
        mats = winograd_matrices(6, 3, dtype="float32")
        a = winograd_segment(x, w, seg, ph=1, pw=1, oh=7, mats=mats)
        b = winograd_segment(x, w, seg, ph=1, pw=1, oh=7)
        np.testing.assert_array_equal(a, b)

    def test_indivisible_width_rejected(self, problem):
        x, w, _ = problem
        seg = Segment(kernel=get_kernel(8, 3), start=0, width=7)
        with pytest.raises(ValueError, match="divisible"):
            winograd_segment(x, w, seg, ph=1, pw=1, oh=7)


class TestGemmSegment:
    def test_left_edge_with_padding(self, problem):
        """A tail at column 0 must reproduce the implicit left padding."""
        x, w, truth = problem
        seg = Segment(kernel=GEMM, start=0, width=2)
        got = gemm_segment(x, w, seg, ph=1, pw=1, oh=7)
        assert rel_err(got, truth[:, :, :2, :]) < 1e-5

    def test_right_edge(self, problem):
        x, w, truth = problem
        seg = Segment(kernel=GEMM, start=18, width=2)
        got = gemm_segment(x, w, seg, ph=1, pw=1, oh=7)
        assert rel_err(got, truth[:, :, 18:, :]) < 1e-5

    def test_interior_strip(self, problem):
        x, w, truth = problem
        seg = Segment(kernel=GEMM, start=9, width=3)
        got = gemm_segment(x, w, seg, ph=1, pw=1, oh=7)
        assert rel_err(got, truth[:, :, 9:12, :]) < 1e-5

    def test_single_column(self, problem):
        x, w, truth = problem
        seg = Segment(kernel=GEMM, start=13, width=1)
        got = gemm_segment(x, w, seg, ph=1, pw=1, oh=7)
        assert got.shape == (2, 7, 1, 4)
        assert rel_err(got, truth[:, :, 13:14, :]) < 1e-5
