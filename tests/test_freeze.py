"""Tests for frozen-inference mode (Module.freeze / Conv2D pre-transform)."""

import numpy as np
import pytest

from repro import obs, runtime
from repro.core import conv2d_im2col_winograd
from repro.dlframe import Adam, Tensor, Trainer, synthetic_cifar10
from repro.dlframe.layers import Conv2D
from repro.dlframe.models import resnet18, vgg16


class TestConvFreeze:
    def test_frozen_forward_bit_identical(self, rng):
        conv = Conv2D(3, 4, 3, engine="winograd", rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 9, 11, 3)).astype(np.float32)
        conv.eval()
        before = conv(Tensor(x)).data
        conv.freeze()
        np.testing.assert_array_equal(conv(Tensor(x)).data, before)

    def test_cache_per_input_width(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        for iw in (8, 12, 8, 16):
            conv(Tensor(rng.standard_normal((1, 6, iw, 2)).astype(np.float32)))
        assert set(conv._bundles) == {8, 12, 16}

    def test_train_invalidates(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        conv(Tensor(rng.standard_normal((1, 6, 8, 2)).astype(np.float32)))
        assert conv._bundles
        conv.train()
        assert not conv._bundles and not conv._frozen

    def test_weight_update_after_unfreeze_takes_effect(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((1, 6, 8, 2)).astype(np.float32)
        y_old = conv(Tensor(x)).data.copy()
        conv.train()
        conv.weight.data += 0.5
        conv.freeze()
        y_new = conv(Tensor(x)).data
        assert not np.allclose(y_old, y_new)

    def test_frozen_conv_honours_force_legacy(self, rng):
        """Frozen convs go through ``runtime.convolve``, so degradation applies."""
        conv = Conv2D(3, 4, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((2, 9, 11, 3)).astype(np.float32)
        conv(Tensor(x))  # build the frozen operands first
        want = conv2d_im2col_winograd(x, conv.weight.data, legacy=True) + conv.bias.data
        with obs.capture():
            with runtime.force_legacy():
                got = conv(Tensor(x)).data
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == 1
        np.testing.assert_array_equal(got, want)

    def test_frozen_calls_hit_the_layer_held_bundle(self, rng):
        conv = Conv2D(3, 4, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((2, 9, 11, 3)).astype(np.float32)
        with obs.capture():
            for _ in range(3):
                conv(Tensor(x))
            reg = obs.get_registry()
            assert reg.counter("runtime.filter_cache.misses").total() == 1
            assert reg.counter("runtime.filter_cache.hits").total() == 3

    def test_refreeze_picks_up_new_weights(self, rng):
        """Weights copied in place (as ``load_state_dict`` does) take effect
        on the next freeze, which drops the old operands."""
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((1, 6, 8, 2)).astype(np.float32)
        conv(Tensor(x))
        conv.weight.data[...] = rng.standard_normal(conv.weight.data.shape)
        conv.freeze()
        want = conv2d_im2col_winograd(x, conv.weight.data, legacy=True) + conv.bias.data
        np.testing.assert_array_equal(conv(Tensor(x)).data, want)

    def test_gemm_engine_ignores_freeze(self, rng):
        conv = Conv2D(2, 2, 3, engine="gemm", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((1, 6, 8, 2)).astype(np.float32)
        conv(Tensor(x))
        assert not conv._bundles  # gemm path never transforms filters


class TestModelFreeze:
    def test_tree_freeze_matches_eval(self, rng):
        m = vgg16(classes=4, image=8, width_mult=0.125, seed=1)
        x = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        m.eval()
        want = m(Tensor(x)).data
        m.freeze()
        got = m(Tensor(x)).data
        np.testing.assert_array_equal(got, want)

    def test_resnet_freeze(self, rng):
        m = resnet18(classes=4, width_mult=0.0625, seed=1)
        x = rng.standard_normal((1, 16, 16, 3)).astype(np.float32)
        m.eval()
        want = m(Tensor(x)).data
        m.freeze()
        np.testing.assert_array_equal(m(Tensor(x)).data, want)

    def test_freeze_sets_eval_everywhere(self):
        m = vgg16(classes=4, image=8, width_mult=0.0625, seed=1).freeze()
        from repro.dlframe.layers import BatchNorm2D

        for layer in m:
            assert not layer.training
            if isinstance(layer, Conv2D):
                assert layer._frozen

    def test_train_after_freeze_resumes_learning(self):
        """Freeze for eval, then resume training — the round trip must not
        poison the optimiser path."""
        train, _ = synthetic_cifar10(train=48, test=8, image=8, classes=4, noise=0.2)
        m = vgg16(classes=4, image=8, width_mult=0.125, seed=1)
        t = Trainer(m, Adam(m.parameters(), lr=2e-3), record_every=1)
        t.train_step(train.x[:24], train.y[:24])
        m.freeze()
        m(Tensor(train.x[:8]))
        m.train()
        first = t.train_step(train.x[:24], train.y[:24])
        for _ in range(6):
            last = t.train_step(train.x[:24], train.y[:24])
        assert last < first
