"""Tests for the machine-calibrated cost model (repro.gpusim.calibrate)."""

from __future__ import annotations

import pytest

from repro.core.planner import plan_convolution
from repro.gpusim import RTX4090, estimate_conv
from repro.gpusim import calibrate
from repro.gpusim.autotune import autotune_conv, clear_autotune_cache
from repro.gpusim.calibrate import (
    CALIB_SMOKE_SHAPES,
    FEATURES,
    CalibSample,
    CalibrationModel,
    calibration_path,
    conv_features,
    default_model,
    features_for,
    fit,
    host_key,
    prediction_error_pct,
)
from repro.nhwc.tensor import ConvShape


@pytest.fixture(autouse=True)
def _no_active_calibration():
    calibrate.deactivate()
    yield
    calibrate.deactivate()


def _shape(batch=1, hw=32, ic=16, oc=16) -> ConvShape:
    return ConvShape(
        batch=batch, ih=hw, iw=hw, ic=ic, oc=oc, fh=3, fw=3, ph=1, pw=1, stride=1
    )


class TestFeatures:
    def test_feature_keys_are_the_fit_terms(self):
        feats = features_for(_shape(), alpha=8)
        assert set(feats) == set(FEATURES)
        assert all(v >= 0.0 for v in feats.values())

    def test_flop_and_byte_terms_affine_in_batch(self):
        f1 = features_for(_shape(batch=1), alpha=8)
        f2 = features_for(_shape(batch=2), alpha=8)
        f3 = features_for(_shape(batch=3), alpha=8)
        for key in ("transform_flop", "contract_flop", "tail_flop", "mem_bytes"):
            assert f2[key] == pytest.approx(2 * f1[key])
            assert f3[key] == pytest.approx(3 * f1[key])
        # Launch/call terms are per-dispatch, not per-row.
        assert f2["launch"] == f1["launch"]
        assert f2["call"] == f1["call"] == 1.0

    def test_conv_features_rejects_gemm_plans(self):
        strided = ConvShape(
            batch=1, ih=32, iw=32, ic=8, oc=8, fh=3, fw=3, ph=1, pw=1, stride=2
        )
        plan = plan_convolution(strided)
        assert plan.algorithm != "im2col-winograd"
        with pytest.raises(ValueError):
            conv_features(plan, 1)

    def test_smoke_shapes_all_planable(self):
        for batch, ih, iw, ic, oc, alpha in CALIB_SMOKE_SHAPES:
            feats = features_for(
                ConvShape(
                    batch=batch, ih=ih, iw=iw, ic=ic, oc=oc,
                    fh=3, fw=3, ph=1, pw=1, stride=1,
                ),
                alpha=alpha,
            )
            assert feats["contract_flop"] > 0.0


class TestFit:
    def _synthetic_samples(self, coeffs: dict[str, float]) -> list[CalibSample]:
        truth = CalibrationModel(host="truth", coeffs=coeffs)
        samples = []
        for batch, ih, iw, ic, oc, alpha in CALIB_SMOKE_SHAPES:
            shape = ConvShape(
                batch=batch, ih=ih, iw=iw, ic=ic, oc=oc,
                fh=3, fw=3, ph=1, pw=1, stride=1,
            )
            feats = features_for(shape, alpha=alpha)
            samples.append(
                CalibSample(
                    label=f"{batch}x{ih}x{iw}x{ic}-{oc}a{alpha}",
                    features=feats,
                    measured_ns=truth.predict_ns(feats),
                )
            )
        return samples

    def test_fit_recovers_synthetic_model(self):
        coeffs = {"contract_flop": 0.02, "mem_bytes": 0.4, "launch": 1e5, "call": 2e4}
        samples = self._synthetic_samples(coeffs)
        model = fit(samples, host="test")
        assert model.fitted
        assert model.host == "test"
        for s in samples:
            assert prediction_error_pct(model, s) < 0.5

    def test_fit_stats_record_both_error_bands(self):
        samples = self._synthetic_samples({"mem_bytes": 0.5, "call": 5e4})
        model = fit(samples)
        stats = model.stats
        assert stats["samples"] == len(samples)
        assert stats["mean_abs_error_pct"] <= stats["max_abs_error_pct"]
        assert "uncalibrated_mean_abs_error_pct" in stats
        # Exact synthetic data: the fit must essentially interpolate it.
        assert stats["mean_abs_error_pct"] < 0.5

    def test_fit_requires_samples(self):
        with pytest.raises(ValueError):
            fit([])

    def test_coefficients_never_negative(self):
        samples = self._synthetic_samples({"mem_bytes": 0.5})
        model = fit(samples)
        assert all(c >= 0.0 for c in model.coeffs.values())


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = fit(
            TestFit()._synthetic_samples({"mem_bytes": 0.3, "launch": 2e5}), host="vm"
        )
        path = model.save(tmp_path / "CALIB_vm.json")
        loaded = CalibrationModel.load(path)
        assert loaded.host == "vm"
        assert loaded.fitted
        for k in FEATURES:
            assert loaded.coeffs[k] == pytest.approx(model.coeffs.get(k, 0.0))

    def test_load_rejects_bad_schema(self, tmp_path):
        p = tmp_path / "CALIB_x.json"
        p.write_text('{"schema_version": 999, "coeffs": {"call": 1.0}}')
        with pytest.raises(ValueError):
            CalibrationModel.load(p)

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"schema_version": 1, "coeffs": {"call": 1.0}, "stats": 5}',
            '{"schema_version": 1, "coeffs": {"call": NaN}}',
            '{"schema_version": 1, "coeffs": {"const_ns": 1.0}}',
            '{"schema_version": 1, "coeffs": {"call": -1.0}}',
            '{"schema_version": 1, "coeffs": {"call": "fast"}}',
        ],
        ids=["list", "stats-int", "nan", "unknown-name", "negative", "string"],
    )
    def test_load_rejects_malformed_file(self, tmp_path, text):
        p = tmp_path / "CALIB_x.json"
        p.write_text(text)
        with pytest.raises(ValueError):
            CalibrationModel.load(p)

    def test_calibration_path_is_host_keyed(self, tmp_path):
        path = calibration_path(tmp_path)
        assert path.name == f"CALIB_{host_key()}.json"
        assert "/" not in host_key() and " " not in host_key()


class TestActivation:
    def test_estimate_conv_consults_active_model_only(self):
        shape = _shape()
        baseline = estimate_conv(shape, RTX4090, alpha=8)
        assert not baseline.calibrated
        model = CalibrationModel(
            host="t", coeffs={"call": 5e6}, fitted=True  # predict 5 ms flat
        )
        with calibrate.activated(model):
            est = estimate_conv(shape, RTX4090, alpha=8)
            assert est.calibrated
            assert est.time_ms == pytest.approx(5.0)
            assert est.predicted_ns == pytest.approx(5e6)
        after = estimate_conv(shape, RTX4090, alpha=8)
        assert not after.calibrated
        assert after.time_ms == pytest.approx(baseline.time_ms)

    def test_generation_bumps_on_activation_changes(self):
        g0 = calibrate.generation()
        with calibrate.activated(default_model()):
            assert calibrate.generation() != g0
        assert calibrate.generation() != g0  # deactivation bumps again

    def test_resolve_model_falls_back_to_handset(self):
        assert calibrate.active_model() is None
        resolve = calibrate.resolve_model()
        assert not resolve.fitted
        assert resolve.host == "default"


class TestAutotuneCalibration:
    def test_autotune_with_calibration_marks_pricing_source(self):
        clear_autotune_cache()
        shape = _shape(hw=48, ic=32, oc=32)
        plain = autotune_conv(shape, RTX4090)
        assert plain.calibrated_by is None
        model = fit(
            TestFit()._synthetic_samples({"mem_bytes": 0.4, "call": 1e5}), host="vm"
        )
        with calibrate.activated(model):
            clear_autotune_cache()
            tuned = autotune_conv(shape, RTX4090, use_calibration=True)
        assert tuned.calibrated_by == "vm"
        assert tuned.ranking, "calibrated ranking must still cover the candidates"
        # Ranking costs are sorted ascending regardless of pricing source.
        costs = [c for _, c in tuned.ranking]
        assert costs == sorted(costs)
