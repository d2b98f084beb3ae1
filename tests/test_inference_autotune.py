"""Tests for frozen-bundle inference and the autotuner.

A frozen caller transforms its filters once (§6.1.2) with
:func:`repro.runtime.build_filter_bundle` and passes the result as
``runtime.convolve(..., bundle=...)`` on every call, as a frozen
``dlframe`` ``Conv2D`` does.
"""

import numpy as np
import pytest

from repro import obs, runtime
from repro.core import conv2d_im2col_winograd
from repro.core.boundary import plan_width_segments
from repro.core.kernels import default_alpha_for_width, get_kernel
from repro.gpusim import RTX3060TI, RTX4090, autotune_conv, clear_autotune_cache
from repro.nhwc import ConvShape
from repro.runtime import FilterBundle, build_filter_bundle


def frozen_bundle(w: np.ndarray, iw: int) -> FilterBundle:
    """``w``'s operands for every Winograd scheme of the plan at width ``iw``."""
    fw = w.shape[2]
    ow = iw + 2 * (fw // 2) - fw + 1
    primary = get_kernel(default_alpha_for_width(fw), fw, "base")
    segments = plan_width_segments(ow, fw, primary=primary)
    schemes = [
        (seg.kernel.spec.n, seg.kernel.spec.r)  # type: ignore[union-attr]
        for seg in segments
        if not seg.is_gemm
    ]
    return build_filter_bundle(
        w, schemes, w.dtype, gemm=any(seg.is_gemm for seg in segments)
    )


class TestFrozenBundle:
    @pytest.mark.parametrize("r,iw", [(3, 13), (5, 16), (2, 9), (9, 20), (7, 30)])
    def test_bitwise_identical_to_functional(self, rng, r, iw):
        """Pre-transforming must not change a single bit: same matrices,
        same accumulation order."""
        w = rng.standard_normal((4, r, r, 5)).astype(np.float32)
        x = rng.standard_normal((2, 11, iw, 5)).astype(np.float32)
        got = runtime.convolve(x, w, bundle=frozen_bundle(w, iw))
        np.testing.assert_array_equal(got, conv2d_im2col_winograd(x, w))

    def test_reusable_across_batches(self, rng):
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        bundle = frozen_bundle(w, 12)
        for batch in (1, 3, 8):
            x = rng.standard_normal((batch, 8, 12, 4)).astype(np.float32)
            np.testing.assert_array_equal(
                runtime.convolve(x, w, bundle=bundle), conv2d_im2col_winograd(x, w)
            )

    def test_heights_are_free(self, rng):
        """Only the width shapes the bundle; one serves every height."""
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        bundle = frozen_bundle(w, 12)
        for ih in (5, 9, 17):
            x = rng.standard_normal((1, ih, 12, 4)).astype(np.float32)
            np.testing.assert_array_equal(
                runtime.convolve(x, w, bundle=bundle), conv2d_im2col_winograd(x, w)
            )

    def test_wrong_channels_rejected(self, rng):
        w = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        x = rng.standard_normal((1, 8, 12, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="channel"):
            runtime.convolve(x, w, bundle=frozen_bundle(w, 12))

    def test_transformed_bytes_accounting(self, rng):
        """U holds FH x alpha x IC x OC floats per distinct scheme."""
        w = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        bundle = frozen_bundle(w, 12)  # OW=12, n=6 divides: one scheme
        assert bundle.transformed_filter_bytes == 3 * 8 * 5 * 4 * 4

    def test_boundary_plan_with_multiple_schemes(self, rng):
        """An OW needing Gamma_8 + Gamma_4 segments pre-transforms both."""
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        bundle = frozen_bundle(w, 10)  # OW=10 = 6 + 4
        assert len(bundle.u) == 2
        x = rng.standard_normal((1, 6, 10, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            runtime.convolve(x, w, bundle=bundle), conv2d_im2col_winograd(x, w)
        )

    def test_honours_force_legacy(self, rng):
        w = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        x = rng.standard_normal((2, 7, 13, 5)).astype(np.float32)
        bundle = frozen_bundle(w, 13)
        with obs.capture():
            with runtime.force_legacy():
                got = runtime.convolve(x, w, bundle=bundle)
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == 1
        np.testing.assert_array_equal(got, conv2d_im2col_winograd(x, w, legacy=True))

    def test_bundle_owns_its_operands(self, rng):
        """Mutating the source filters after the build leaves the bundle as
        it was: a frozen caller keeps the weights it froze."""
        w = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        x = rng.standard_normal((2, 7, 13, 5)).astype(np.float32)
        want = conv2d_im2col_winograd(x, w, legacy=True)
        bundle = frozen_bundle(w, 13)
        frozen = w.copy()
        w *= 2.0
        np.testing.assert_array_equal(runtime.convolve(x, frozen, bundle=bundle), want)

    def test_validation(self, rng):
        x = rng.standard_normal((1, 6, 10, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        bundle = frozen_bundle(w, 10)
        with pytest.raises(ValueError, match="4D"):
            runtime.convolve(x, w[0], bundle=bundle)
        with pytest.raises(ValueError, match="pw"):
            runtime.convolve(x, w, pw=4, bundle=bundle)


class TestAutotune:
    def setup_method(self):
        clear_autotune_cache()

    def test_prefers_gamma16_at_r7(self):
        """The Figure 8 finding: Gamma_16(10,7) beats Gamma_8(2,7)."""
        c = autotune_conv(ConvShape.from_ofm(64, 40, 40, 128, r=7), RTX3060TI)
        assert c.best.alpha == 16
        names = [k.name for k, _ in c.ranking]
        assert names.index("Gamma_16(10,7)") < names.index("Gamma_8(2,7)")

    def test_ranking_sorted(self):
        c = autotune_conv(ConvShape.from_ofm(32, 24, 24, 64, r=5), RTX3060TI)
        times = [ms for _, ms in c.ranking]
        assert times == sorted(times)
        assert c.ranking[0][0] == c.best

    def test_cache_returns_same_object(self):
        s = ConvShape.from_ofm(32, 24, 24, 64, r=3)
        assert autotune_conv(s, RTX3060TI) is autotune_conv(s, RTX3060TI)

    def test_cache_keyed_by_device(self):
        s = ConvShape.from_ofm(32, 24, 24, 64, r=3)
        a = autotune_conv(s, RTX3060TI)
        b = autotune_conv(s, RTX4090)
        assert a is not b

    def test_cache_keyed_by_kernel_set(self):
        """A ranking over the extended kernels is not served to a caller
        that asked for the base set (r=10 has only extended kernels)."""
        s = ConvShape.from_ofm(8, 24, 24, 64, r=10)
        assert autotune_conv(s, RTX3060TI, include_extended=True).best.r == 10
        with pytest.raises(ValueError, match="include_extended"):
            autotune_conv(s, RTX3060TI)

    def test_rejects_non_winograd_problems(self):
        s = ConvShape(batch=1, ih=16, iw=16, ic=8, oc=8, fh=3, fw=3, ph=1, pw=1, stride=2)
        with pytest.raises(ValueError, match="stride"):
            autotune_conv(s, RTX3060TI)

    def test_never_slower_than_static_planner(self):
        """Search can only improve on the written selection rules."""
        from repro.core import plan_convolution
        from repro.gpusim import estimate_conv

        for r, ow, oc in [(3, 48, 128), (5, 32, 96), (9, 40, 256), (2, 56, 64)]:
            s = ConvShape.from_ofm(32, ow, ow, oc, r=r)
            tuned = autotune_conv(s, RTX3060TI)
            static = estimate_conv(s, RTX3060TI, plan=plan_convolution(s))
            assert tuned.estimate.time_ms <= static.time_ms * 1.0001, (r, ow, oc)
