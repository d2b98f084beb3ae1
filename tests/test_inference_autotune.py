"""Tests for PlannedConv2D (pre-transformed inference) and the autotuner."""

import numpy as np
import pytest

from repro import obs, runtime
from repro.core import PlannedConv2D, conv2d_im2col_winograd
from repro.gpusim import RTX3060TI, RTX4090, autotune_conv, clear_autotune_cache
from repro.nhwc import ConvShape


class TestPlannedConv2D:
    @pytest.mark.parametrize("r,iw", [(3, 13), (5, 16), (2, 9), (9, 20), (7, 30)])
    def test_bitwise_identical_to_functional(self, rng, r, iw):
        """Pre-transforming must not change a single bit: same matrices,
        same accumulation order."""
        w = rng.standard_normal((4, r, r, 5)).astype(np.float32)
        x = rng.standard_normal((2, 11, iw, 5)).astype(np.float32)
        planned = PlannedConv2D(w, iw=iw)
        np.testing.assert_array_equal(planned(x), conv2d_im2col_winograd(x, w))

    def test_reusable_across_batches(self, rng):
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        planned = PlannedConv2D(w, iw=12)
        for batch in (1, 3, 8):
            x = rng.standard_normal((batch, 8, 12, 4)).astype(np.float32)
            assert planned(x).shape == (batch, 8, 12, 3)

    def test_heights_are_free(self, rng):
        """Only the width is baked into the plan; heights vary per call."""
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        planned = PlannedConv2D(w, iw=12)
        for ih in (5, 9, 17):
            x = rng.standard_normal((1, ih, 12, 4)).astype(np.float32)
            assert planned(x).shape[1] == ih

    def test_wrong_width_rejected(self, rng):
        planned = PlannedConv2D(rng.standard_normal((2, 3, 3, 2)).astype(np.float32), iw=12)
        with pytest.raises(ValueError, match="width"):
            planned(rng.standard_normal((1, 8, 13, 2)).astype(np.float32))

    def test_wrong_channels_rejected(self, rng):
        planned = PlannedConv2D(rng.standard_normal((2, 3, 3, 2)).astype(np.float32), iw=12)
        with pytest.raises(ValueError, match="channel"):
            planned(rng.standard_normal((1, 8, 12, 3)).astype(np.float32))

    def test_transformed_bytes_accounting(self, rng):
        """U holds FH x alpha x IC x OC floats per distinct scheme."""
        w = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        planned = PlannedConv2D(w, iw=12)  # OW=12, n=6 divides: one scheme
        assert planned.transformed_filter_bytes == 3 * 8 * 5 * 4 * 4

    def test_boundary_plan_with_multiple_schemes(self, rng):
        """An OW needing Gamma_8 + Gamma_4 segments pre-transforms both."""
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        planned = PlannedConv2D(w, iw=10)  # OW=10 = 6 + 4
        assert len(planned._u) == 2
        x = rng.standard_normal((1, 6, 10, 3)).astype(np.float32)
        np.testing.assert_array_equal(planned(x), conv2d_im2col_winograd(x, w))

    def test_honours_force_legacy(self, rng):
        w = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        x = rng.standard_normal((2, 7, 13, 5)).astype(np.float32)
        planned = PlannedConv2D(w, iw=13)
        with obs.capture():
            with runtime.force_legacy():
                got = planned(x)
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == 1
        np.testing.assert_array_equal(got, conv2d_im2col_winograd(x, w, legacy=True))

    def test_filters_are_copied_at_construction(self, rng):
        """Mutating the caller's filters afterwards changes neither path."""
        w = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        x = rng.standard_normal((2, 7, 13, 5)).astype(np.float32)
        want = conv2d_im2col_winograd(x, w, legacy=True)
        planned = PlannedConv2D(w, iw=13)
        assert not np.shares_memory(planned.w, w)
        w *= 2.0
        np.testing.assert_array_equal(planned(x), want)
        with runtime.force_legacy():
            np.testing.assert_array_equal(planned(x), want)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="4D"):
            PlannedConv2D(np.zeros((3, 3, 2), "f4"), iw=10)
        with pytest.raises(ValueError, match="pw"):
            PlannedConv2D(np.zeros((2, 3, 3, 2), "f4"), iw=10, pw=4)


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

    def test_rejects_non_winograd_problems(self):
        s = ConvShape(batch=1, ih=16, iw=16, ic=8, oc=8, fh=3, fw=3, ph=1, pw=1, stride=2)
        with pytest.raises(ValueError, match="stride"):
            autotune_conv(s, RTX3060TI)

    def test_digest_identifies_the_pricing_not_the_host(self):
        from repro.gpusim import calibrate

        a = calibrate.CalibrationModel(host="h", coeffs=dict(calibrate.DEFAULT_COEFFS))
        b = calibrate.CalibrationModel(host="h", coeffs=dict(calibrate.DEFAULT_COEFFS))
        assert a.digest == b.digest  # content-addressed, not identity
        refit = {**calibrate.DEFAULT_COEFFS, "contract_flop": 99.0}
        assert calibrate.CalibrationModel(host="h", coeffs=refit).digest != a.digest
        assert (
            calibrate.CalibrationModel(host="other", coeffs=dict(calibrate.DEFAULT_COEFFS)).digest
            != a.digest
        )

    def test_reloaded_refit_for_same_host_invalidates_cached_rankings(
        self, tmp_path, monkeypatch
    ):
        # The staleness bug this guards against: _CACHE used to key on the
        # activation epoch alone, but loading a different CALIB_<host>.json
        # from the working directory never bumps it — a re-fit landing on
        # disk mid-process kept serving rankings priced by the old model.
        from repro.gpusim import calibrate

        monkeypatch.chdir(tmp_path)
        host = calibrate.host_key()
        shape = ConvShape.from_ofm(32, 24, 24, 64, r=3)
        calibrate.CalibrationModel(
            host=host, coeffs=dict(calibrate.DEFAULT_COEFFS), fitted=True
        ).save(calibrate.calibration_path())
        first = autotune_conv(shape, RTX3060TI, use_calibration=True)
        assert autotune_conv(shape, RTX3060TI, use_calibration=True) is first

        refit = {k: v * 3.0 for k, v in calibrate.DEFAULT_COEFFS.items()}
        calibrate.CalibrationModel(host=host, coeffs=refit, fitted=True).save(
            calibrate.calibration_path()
        )
        second = autotune_conv(shape, RTX3060TI, use_calibration=True)
        assert second is not first  # digest changed; stale ranking not served
        assert second.ranking[0][1] == pytest.approx(3.0 * first.ranking[0][1])

    def test_never_slower_than_static_planner(self):
        """Search can only improve on the written selection rules."""
        from repro.core import plan_convolution
        from repro.gpusim import estimate_conv

        for r, ow, oc in [(3, 48, 128), (5, 32, 96), (9, 40, 256), (2, 56, 64)]:
            s = ConvShape.from_ofm(32, ow, ow, oc, r=r)
            tuned = autotune_conv(s, RTX3060TI)
            static = estimate_conv(s, RTX3060TI, plan=plan_convolution(s))
            assert tuned.estimate.time_ms <= static.time_ms * 1.0001, (r, ow, oc)
