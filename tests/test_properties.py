"""Property-based tests over the core invariants (DESIGN.md §6).

These complement the per-module suites with randomised, shrinking checks on
the load-bearing algebra: the fused convolution against the GEMM oracle over
arbitrary geometry, linearity properties, transform-scheme structure for
arbitrary (n, r), planner/estimator agreement, and model monotonicities.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import conv2d_gemm
from repro.baselines.direct import conv2d_direct
from repro.core import (
    conv2d_im2col_winograd,
    max_matrix_magnitude,
    plan_convolution,
    predicted_error_scale,
    winograd_matrices,
    winograd_matrices_exact,
)
from repro.core.boundary import plan_width_segments
from repro.gpusim import RTX3060TI, estimate_conv
from repro.nhwc import ConvShape

from .conftest import TOL_BY_ALPHA, rel_err


conv_geometry = st.fixed_dictionaries(
    {
        "batch": st.integers(1, 3),
        "ih": st.integers(5, 14),
        "iw": st.integers(5, 20),
        "ic": st.integers(1, 9),
        "oc": st.integers(1, 6),
        "fh": st.integers(1, 5),
        "r": st.integers(2, 7),
        "seed": st.integers(0, 2**31),
    }
)


class TestFusedConvProperties:
    @given(conv_geometry)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_gemm_for_arbitrary_geometry(self, g):
        """Invariant 2: the fused kernel equals the oracle on any geometry
        the envelope admits (any FH, any IC/OC, any OW residue)."""
        assume(g["ih"] >= g["fh"] and g["iw"] >= g["r"])
        rng = np.random.default_rng(g["seed"])
        x = rng.standard_normal((g["batch"], g["ih"], g["iw"], g["ic"])).astype(np.float32)
        w = rng.standard_normal((g["oc"], g["fh"], g["r"], g["ic"])).astype(np.float32)
        ph, pw = g["fh"] // 2, g["r"] // 2
        got = conv2d_im2col_winograd(x, w, ph=ph, pw=pw)
        want = conv2d_gemm(x, w, ph=ph, pw=pw, dtype=np.float64)
        assert rel_err(got, want) < TOL_BY_ALPHA[16]

    @given(st.integers(0, 2**31), st.sampled_from([3, 5]))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_linearity_in_input(self, seed, r):
        """conv(ax + by, w) == a conv(x, w) + b conv(y, w) up to FP noise."""
        rng = np.random.default_rng(seed)
        shape = (1, 8, 11, 3)
        x1 = rng.standard_normal(shape).astype(np.float32)
        x2 = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((2, r, r, 3)).astype(np.float32)
        a, b = 0.5, -1.25  # exactly representable
        lhs = conv2d_im2col_winograd(a * x1 + b * x2, w)
        rhs = a * conv2d_im2col_winograd(x1, w) + b * conv2d_im2col_winograd(x2, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-4)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_linearity_in_filter(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 7, 9, 2)).astype(np.float32)
        w1 = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        w2 = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        lhs = conv2d_im2col_winograd(x, w1 + w2)
        rhs = conv2d_im2col_winograd(x, w1) + conv2d_im2col_winograd(x, w2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-4)

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_delta_filter_is_identity(self, seed):
        """A centred delta filter with unit weight reproduces the input."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 6, 10, 3)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, 1, 1, c] = 1.0
        y = conv2d_im2col_winograd(x, w)
        np.testing.assert_allclose(y, x, rtol=1e-4, atol=1e-5)

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_batch_independence(self, seed):
        """Each batch element is convolved independently."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 6, 9, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        full = conv2d_im2col_winograd(x, w)
        for b in range(3):
            single = conv2d_im2col_winograd(x[b : b + 1], w)
            np.testing.assert_array_equal(full[b : b + 1], single)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_translation_equivariance(self, seed):
        """Shifting the (unpadded-conv) input shifts the output.

        The shifted call tiles each row differently (F(6,3) tiles start two
        columns later, and the unshifted row ends in an F(2,3) remainder),
        so the two are not bit-equal.  Both must stay within the a-priori
        Winograd error bound of the same fp64 reference: the contraction
        length FH*IC times F(6,3)'s error scale, per output element scaled
        by its summed magnitudes sum(|x|*|w|).  A fixed atol fails outputs
        that cancel to near zero while their terms do not.
        """
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 6, 16, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        y = conv2d_im2col_winograd(x, w, ph=0, pw=0)
        y_shift = conv2d_im2col_winograd(x[:, :, 2:, :], w, ph=0, pw=0)
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        ref = conv2d_direct(x64, w64)
        bound = (
            w.shape[1] * w.shape[3] * predicted_error_scale(6, 3)
            * conv2d_direct(np.abs(x64), np.abs(w64))
        )
        assert np.all(np.abs(y - ref) <= bound)
        assert np.all(np.abs(y_shift - ref[:, :, 2:, :]) <= bound[:, :, 2:, :])


class TestTransformProperties:
    @given(st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_infinity_structure_everywhere(self, n, r):
        """Last G row = e_{r-1}; last A^T column hits only the top degree."""
        at, g, dt = winograd_matrices_exact(n, r)
        alpha = n + r - 1
        assert list(g[alpha - 1]) == [0] * (r - 1) + [1]
        col = [at[j][alpha - 1] for j in range(n)]
        assert col[:-1] == [0] * (n - 1) and col[-1] == 1

    @given(st.integers(2, 8))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_magnitude_grows_with_alpha(self, n):
        """Adding a point never shrinks the worst matrix entry."""
        small = max_matrix_magnitude(n, 3)
        big = max_matrix_magnitude(n + 4, 3)
        assert big >= small

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_dt_is_invertible(self, n, r):
        """D^T must be nonsingular — otherwise states would be redundant."""
        m = winograd_matrices(n, r, dtype="float64")
        assert abs(np.linalg.det(m.DT)) > 1e-12


class TestPlannerEstimatorAgreement:
    @given(
        ow=st.integers(4, 120),
        r=st.integers(2, 9),
        oc=st.sampled_from([32, 64, 96, 128]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_estimate_prices_exactly_the_plan(self, ow, r, oc):
        """'What we run and what we cost never drift': the estimator's
        segments equal the planner's, width for width."""
        shape = ConvShape.from_ofm(16, 16, ow, oc, r=r)
        plan = plan_convolution(shape)
        est = estimate_conv(shape, RTX3060TI, plan=plan)
        assert [s.width for s in est.segments] == [s.width for s in plan.segments]
        assert [s.name for s in est.segments] == [s.name for s in plan.segments]

    @given(ow=st.integers(4, 200), r=st.integers(2, 9))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_segments_partition_for_any_primary(self, ow, r):
        for k in [None]:
            segs = plan_width_segments(ow, r, primary=k)
            assert sum(s.width for s in segs) == ow


class TestModelMonotonicity:
    @given(batch=st.sampled_from([8, 16, 32, 64, 128]))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_time_increases_with_batch(self, batch):
        s1 = ConvShape.from_ofm(batch, 32, 30, 64, r=3)
        s2 = ConvShape.from_ofm(batch * 2, 32, 30, 64, r=3)
        t1 = estimate_conv(s1, RTX3060TI).time_ms
        t2 = estimate_conv(s2, RTX3060TI).time_ms
        assert t2 > t1

    @given(ic=st.sampled_from([32, 64, 128, 256]))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_time_increases_with_channels(self, ic):
        s1 = ConvShape.from_ofm(32, 24, 24, ic, r=3)
        s2 = ConvShape.from_ofm(32, 24, 24, 2 * ic, r=3)
        assert estimate_conv(s2, RTX3060TI).time_ms > estimate_conv(s1, RTX3060TI).time_ms

    def test_gflops_positive_everywhere(self):
        for r in range(2, 10):
            for ow in (17, 32, 63):
                shape = ConvShape.from_ofm(16, 16, ow, 64, r=r)
                e = estimate_conv(shape, RTX3060TI)
                assert np.isfinite(e.gflops) and e.gflops > 0
