"""Tests for frozen-inference mode (Module.freeze / Conv2D pre-transform)."""

import numpy as np
import pytest

from repro import obs, runtime
from repro.baselines.gemm import conv2d_gemm
from repro.core import rowblocks
from repro.core import conv2d_im2col_winograd
from repro.dlframe import Adam, Tensor, Trainer, conv_layer_geometries, synthetic_cifar10
from repro.dlframe.layers import Conv2D
from repro.dlframe.models import resnet18, vgg16


#: Channels at which the engine rule keeps a 3x3 conv on Winograd for any
#: output width above 4 (the GEMM region stops at 64 channels for OW <= 16
#: and at 128 for OW <= 4).
WINO_C = 72


def _wino_conv() -> Conv2D:
    return Conv2D(WINO_C, WINO_C, 3, engine="winograd", rng=np.random.default_rng(0))


#: Input side at which every conv of the small test models keeps its first
#: block on Winograd: the engine rule's GEMM region stops at ``OW`` 32.
WINO_IMAGE = 40


def _winograd_convs(model, shape) -> int:
    """Convs of ``model`` that ran Winograd on their ``shape``-input forwards."""
    return sum(
        layer.effective_engine == "winograd"
        for layer, *_ in conv_layer_geometries(model, shape)
    )


class TestConvFreeze:
    def test_frozen_forward_bit_identical(self, rng):
        for c, engine in ((WINO_C, "winograd"), (3, "gemm")):
            conv = Conv2D(c, c, 3, engine="winograd", rng=np.random.default_rng(0))
            x = rng.standard_normal((2, 9, 11, c)).astype(np.float32)
            conv.eval()
            before = conv(Tensor(x)).data
            conv.freeze()
            np.testing.assert_array_equal(conv(Tensor(x)).data, before)
            assert conv.effective_engine == engine

    def test_cache_per_input_width(self, rng):
        conv = _wino_conv().freeze()
        for iw in (8, 12, 8, 16):
            conv(Tensor(rng.standard_normal((1, 6, iw, WINO_C)).astype(np.float32)))
        assert set(conv._compiled) == {(6, 8), (6, 12), (6, 16)}
        assert conv.effective_engine == "winograd"

    def test_folded_operands_only_for_a_gemm_tail(self, rng):
        """A frozen Winograd conv holds the folded filters only at widths
        whose plan ends in a §5.5 GEMM tail (OW = 13 under Γ8(6,3))."""
        conv = _wino_conv().freeze()
        for iw in (12, 13):
            x = rng.standard_normal((1, 6, iw, WINO_C)).astype(np.float32)
            np.testing.assert_array_equal(
                conv(Tensor(x)).data,
                conv2d_im2col_winograd(x, conv.weight.data) + conv.bias.data,
            )
        assert conv._compiled[(6, 12)][1].gemm_operand is None
        np.testing.assert_array_equal(
            conv._compiled[(6, 13)][1].gemm_operand, rowblocks.fold_filters(conv.weight.data)
        )

    def test_rule_picked_gemm_holds_folded_operands(self, rng):
        """Few channels: the rule runs GEMM, and the frozen layer holds the
        folded filters per input width instead of their transforms."""
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        for iw in (8, 12, 8):
            x = rng.standard_normal((1, 6, iw, 2)).astype(np.float32)
            np.testing.assert_array_equal(
                conv(Tensor(x)).data,
                conv2d_gemm(x, conv.weight.data, ph=1, pw=1) + conv.bias.data,
            )
        assert set(conv._compiled) == {(6, 8), (6, 12)}
        for _, bundle in conv._compiled.values():
            assert not bundle.u and bundle.gemm_operand.shape == (3 * 3 * 2, 2)
        assert conv.effective_engine == "gemm"

    def test_rule_picked_gemm_honours_force_legacy(self, rng):
        """A rule-picked GEMM conv degrades to ``conv2d_gemm``, bit for bit."""
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((2, 9, 11, 2)).astype(np.float32)
        want = conv(Tensor(x)).data
        with obs.capture():
            with runtime.force_legacy():
                got = conv(Tensor(x)).data
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == 1
        np.testing.assert_array_equal(got, want)

    def test_train_invalidates(self, rng):
        for conv, c in ((_wino_conv(), WINO_C), (Conv2D(2, 2, 3), 2)):
            conv.freeze()
            conv(Tensor(rng.standard_normal((1, 6, 8, c)).astype(np.float32)))
            assert conv._compiled
            conv.train()
            assert not conv._compiled and not conv._frozen

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
        conv = _wino_conv().freeze()
        x = rng.standard_normal((2, 9, 11, WINO_C)).astype(np.float32)
        conv(Tensor(x))  # build the frozen operands first
        want = conv2d_im2col_winograd(x, conv.weight.data, legacy=True) + conv.bias.data
        with obs.capture():
            with runtime.force_legacy():
                got = conv(Tensor(x)).data
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == 1
        np.testing.assert_array_equal(got, want)

    def test_frozen_calls_hit_the_layer_held_bundle(self, rng):
        conv = _wino_conv().freeze()
        x = rng.standard_normal((2, 9, 11, WINO_C)).astype(np.float32)
        with obs.capture():
            for _ in range(3):
                conv(Tensor(x))
            reg = obs.get_registry()
            assert reg.counter("runtime.filter_cache.misses").total() == 1
            assert reg.counter("runtime.filter_cache.hits").total() == 3

    def test_refreeze_picks_up_new_weights(self, rng):
        """Weights copied in place (as ``load_state_dict`` does) take effect
        on the next freeze, which drops the old operands."""
        conv = _wino_conv().freeze()
        x = rng.standard_normal((1, 6, 8, WINO_C)).astype(np.float32)
        conv(Tensor(x))
        conv.weight.data[...] = rng.standard_normal(conv.weight.data.shape)
        conv.freeze()
        want = conv2d_im2col_winograd(x, conv.weight.data, legacy=True) + conv.bias.data
        np.testing.assert_array_equal(conv(Tensor(x)).data, want)

    def test_gemm_engine_ignores_freeze(self, rng):
        conv = Conv2D(2, 2, 3, engine="gemm", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((1, 6, 8, 2)).astype(np.float32)
        conv(Tensor(x))
        assert not conv._compiled  # gemm path never transforms filters
        assert conv.effective_engine == "gemm"


class TestModelFreeze:
    def test_tree_freeze_matches_eval(self, rng):
        m = vgg16(classes=4, image=WINO_IMAGE, width_mult=0.125, seed=1)
        x = rng.standard_normal((2, WINO_IMAGE, WINO_IMAGE, 3)).astype(np.float32)
        m.eval()
        want = m(Tensor(x)).data
        m.freeze()
        got = m(Tensor(x)).data
        np.testing.assert_array_equal(got, want)
        assert _winograd_convs(m, x.shape) == 2  # the first block; GEMM after it

    def test_resnet_freeze(self, rng):
        m = resnet18(classes=4, width_mult=0.0625, seed=1)
        x = rng.standard_normal((1, WINO_IMAGE, WINO_IMAGE, 3)).astype(np.float32)
        m.eval()
        want = m(Tensor(x)).data
        m.freeze()
        np.testing.assert_array_equal(m(Tensor(x)).data, want)
        assert _winograd_convs(m, x.shape) == 5  # the stem and layer1

    @pytest.mark.parametrize("width_mult, image", [(0.125, 32), (0.0625, WINO_IMAGE)])
    def test_frozen_model_honours_force_legacy(self, rng, width_mult, image):
        """A frozen ResNet-18 (every conv GEMM at width 0.125, Winograd
        blocks at the wider image) under ``force_legacy()``: one degraded
        call per conv, the strided ones included, and the bits equal the
        compiled forward's."""
        m = resnet18(classes=4, width_mult=width_mult, seed=1).freeze()
        x = rng.standard_normal((2, image, image, 3)).astype(np.float32)
        want = m(Tensor(x)).data  # resolves every frozen executable
        strides = [layer.stride for layer, *_ in conv_layer_geometries(m, x.shape)]
        assert 1 in strides and 2 in strides
        with obs.capture():
            with runtime.force_legacy():
                got = m(Tensor(x)).data
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == len(strides)
        np.testing.assert_array_equal(got, want)

    def test_frozen_strided_conv_folds_once(self, rng, monkeypatch):
        """A frozen strided conv resolves a stride-2 GEMM executable and
        folds its filters on its first call only, then runs on the bundle
        it holds; every call returns the baseline GEMM's bits."""
        conv = Conv2D(8, 16, 3, stride=2, rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((3, 9, 9, 8)).astype(np.float32)
        want = conv2d_gemm(x, conv.weight.data, ph=1, pw=1, stride=2) + conv.bias.data
        np.testing.assert_array_equal(conv(Tensor(x)).data, want)
        (exe, bundle), = conv._compiled.values()
        assert (exe.sig.algorithm, exe.sig.stride, exe.ow) == ("gemm", 2, 5)
        np.testing.assert_array_equal(
            bundle.gemm_operand, rowblocks.fold_filters(conv.weight.data)
        )
        folds = []
        fold = rowblocks.fold_filters
        monkeypatch.setattr(rowblocks, "fold_filters", lambda w: folds.append(w) or fold(w))
        with obs.capture():
            np.testing.assert_array_equal(conv(Tensor(x)).data, want)
            reg = obs.get_registry()
            assert reg.counter("runtime.filter_cache.hits").total() == 1
            assert reg.counter("runtime.filter_cache.misses").total() == 0
        assert not folds
        assert conv._compiled[(9, 9)][1] is bundle

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
