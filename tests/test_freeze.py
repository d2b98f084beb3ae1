"""Tests for the filter operands each ``Conv2D`` holds.

A layer builds its executable and filter operands (Winograd ``U``, or the
folded GEMM matrix for the GEMM engine, where the rule picks GEMM or the
layer is strided) once per input size and weight array, for the forward
and for the unit-stride data grad, in train and eval mode alike.  Weights change only by
replacement (:class:`~repro.dlframe.layers.Parameter` arrays are read-only),
so an entry is current exactly while the parameter still holds the array it
was built from.  "Frozen" in the test names below means a model whose
weights stay fixed between calls, as a served model's do.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import obs, runtime
from repro.baselines.gemm import conv2d_gemm
from repro.core import rowblocks
from repro.core import conv2d_im2col_winograd
from repro.core.gradients import backward_filter_for_input_grad
from repro.dlframe import (
    SGDM,
    Adam,
    Tensor,
    Trainer,
    conv_layer_geometries,
    synthetic_cifar10,
)
from repro.dlframe.layers import Conv2D, Module
from repro.dlframe.losses import softmax_cross_entropy
from repro.dlframe.models import resnet18, vgg16
from repro.dlframe.serialization import load_state_dict, state_dict
from repro.serve import ModelRegistry


@pytest.fixture(autouse=True)
def _fresh_runtime():
    """Each test sees an empty plan cache, so no other test's slots show."""
    runtime.clear_cache()
    yield
    runtime.clear_cache()


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


def _bundles(table) -> list:
    """The filter bundles of a layer's held-operand table."""
    return [bundle for _, _, bundle in table.values()]


def _convs(model: Module) -> list[Conv2D]:
    return [m for m in model.walk() if isinstance(m, Conv2D)]


class TestConvFreeze:
    def test_frozen_forward_bit_identical(self, rng):
        """The first (building) call and later (held) calls, in either mode,
        return the functional path's bits."""
        for c, engine in ((WINO_C, "winograd"), (3, "gemm")):
            conv = Conv2D(c, c, 3, engine="winograd", rng=np.random.default_rng(0))
            x = rng.standard_normal((2, 9, 11, c)).astype(np.float32)
            want = runtime.convolve(x, conv.weight.data, ph=1, pw=1, algorithm=engine)
            want += conv.bias.data
            np.testing.assert_array_equal(conv(Tensor(x)).data, want)
            conv.eval()
            np.testing.assert_array_equal(conv(Tensor(x)).data, want)
            assert conv.effective_engine == engine

    def test_cache_per_input_width(self, rng):
        conv = _wino_conv().eval()
        for iw in (8, 12, 8, 16):
            conv(Tensor(rng.standard_normal((1, 6, iw, WINO_C)).astype(np.float32)))
        assert set(conv._forward_ops) == {(6, 8), (6, 12), (6, 16)}
        assert conv.effective_engine == "winograd"

    def test_folded_operands_only_for_a_gemm_tail(self, rng):
        """A Winograd conv holds the folded filters only at widths whose
        plan ends in a §5.5 GEMM tail (OW = 13 under Γ8(6,3))."""
        conv = _wino_conv().eval()
        for iw in (12, 13):
            x = rng.standard_normal((1, 6, iw, WINO_C)).astype(np.float32)
            np.testing.assert_array_equal(
                conv(Tensor(x)).data,
                conv2d_im2col_winograd(x, conv.weight.data) + conv.bias.data,
            )
        assert conv._forward_ops[(6, 12)][2].gemm_operand is None
        np.testing.assert_array_equal(
            conv._forward_ops[(6, 13)][2].gemm_operand, rowblocks.fold_filters(conv.weight.data)
        )

    def test_rule_picked_gemm_holds_folded_operands(self, rng):
        """Few channels: the rule runs GEMM, and the layer holds the folded
        filters per input width instead of their transforms."""
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).eval()
        for iw in (8, 12, 8):
            x = rng.standard_normal((1, 6, iw, 2)).astype(np.float32)
            np.testing.assert_array_equal(
                conv(Tensor(x)).data,
                conv2d_gemm(x, conv.weight.data, ph=1, pw=1) + conv.bias.data,
            )
        assert set(conv._forward_ops) == {(6, 8), (6, 12)}
        for bundle in _bundles(conv._forward_ops):
            assert not bundle.u and bundle.gemm_operand.shape == (3 * 3 * 2, 2)
        assert conv.effective_engine == "gemm"

    def test_rule_picked_gemm_honours_force_legacy(self, rng):
        """A rule-picked GEMM conv degrades to ``conv2d_gemm``, bit for bit."""
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).eval()
        x = rng.standard_normal((2, 9, 11, 2)).astype(np.float32)
        want = conv(Tensor(x)).data
        with obs.capture():
            with runtime.force_legacy():
                got = conv(Tensor(x)).data
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == 1
        np.testing.assert_array_equal(got, want)

    def test_train_invalidates(self, rng):
        """A training step replaces the weights: the next forward and data
        grad rebuild their operands from the new array, and the entries they
        replace do not keep the old weights alive."""
        conv = _wino_conv()
        opt = SGDM(conv.parameters(), lr=0.1)
        x = Tensor(rng.standard_normal((1, 6, 8, WINO_C)).astype(np.float32), requires_grad=True)
        conv(x).sum().backward()
        old = weakref.ref(conv.weight.data)
        (ref_fwd, _, bundle_fwd), = conv._forward_ops.values()
        (ref_grad, _, bundle_grad), = conv._grad_ops.values()
        assert ref_fwd() is ref_grad() is old()
        opt.step()
        conv(x).sum().backward()
        gc.collect()
        assert old() is None
        (ref_fwd, _, new_fwd), = conv._forward_ops.values()
        (ref_grad, _, new_grad), = conv._grad_ops.values()
        assert ref_fwd() is ref_grad() is conv.weight.data
        assert new_fwd is not bundle_fwd and new_grad is not bundle_grad

    def test_weight_update_after_unfreeze_takes_effect(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).eval()
        x = rng.standard_normal((1, 6, 8, 2)).astype(np.float32)
        y_old = conv(Tensor(x)).data.copy()
        conv.weight.data = conv.weight.data + 0.5
        y_new = conv(Tensor(x)).data
        assert not np.allclose(y_old, y_new)
        np.testing.assert_array_equal(
            y_new, conv2d_gemm(x, conv.weight.data, ph=1, pw=1) + conv.bias.data
        )

    def test_frozen_conv_honours_force_legacy(self, rng):
        """Layer convs go through ``runtime.convolve``, so degradation applies."""
        conv = _wino_conv().eval()
        x = rng.standard_normal((2, 9, 11, WINO_C)).astype(np.float32)
        conv(Tensor(x))  # build the held operands first
        want = conv2d_im2col_winograd(x, conv.weight.data, legacy=True) + conv.bias.data
        with obs.capture():
            with runtime.force_legacy():
                got = conv(Tensor(x)).data
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == 1
        np.testing.assert_array_equal(got, want)

    def test_frozen_calls_hit_the_layer_held_bundle(self, rng):
        conv = _wino_conv().eval()
        x = rng.standard_normal((2, 9, 11, WINO_C)).astype(np.float32)
        with obs.capture():
            for _ in range(3):
                conv(Tensor(x))
            reg = obs.get_registry()
            assert reg.counter("runtime.filter_cache.misses").total() == 1
            assert reg.counter("runtime.filter_cache.hits").total() == 3
        assert all(e.cached_filter_versions == 0 for e in runtime.global_cache().executables())

    def test_reload_picks_up_new_weights(self, rng):
        """Weights assigned by ``load_state_dict`` take effect on the next
        call, with no step in between that drops the old operands."""
        conv = _wino_conv().eval()
        x = rng.standard_normal((1, 6, 8, WINO_C)).astype(np.float32)
        conv(Tensor(x))
        state = state_dict(conv)
        state["weight"] = rng.standard_normal(conv.weight.data.shape).astype(np.float32)
        load_state_dict(conv, state)
        want = conv2d_im2col_winograd(x, state["weight"], legacy=True) + conv.bias.data
        np.testing.assert_array_equal(conv(Tensor(x)).data, want)

    def test_gemm_engine_holds_one_entry_per_input_size(self, rng):
        """The GEMM engine runs its forward and data grad on held GEMM
        operands too: one forward and one data-grad entry per input size,
        each the folded filters its conv reads."""
        conv = Conv2D(2, 3, 3, engine="gemm", rng=np.random.default_rng(0))
        for iw in (8, 12, 8):
            x = Tensor(rng.standard_normal((1, 6, iw, 2)).astype(np.float32), requires_grad=True)
            conv(x).sum().backward()
        assert set(conv._forward_ops) == {(6, 8), (6, 12)}
        f32 = np.dtype(np.float32)
        assert set(conv._grad_ops) == {(6, 8, f32), (6, 12, f32)}
        w = conv.weight.data
        for bundle in _bundles(conv._forward_ops):
            assert not bundle.u
            np.testing.assert_array_equal(bundle.gemm_operand, rowblocks.fold_filters(w))
        for bundle in _bundles(conv._grad_ops):
            assert not bundle.u
            np.testing.assert_array_equal(
                bundle.gemm_operand, rowblocks.fold_filters(backward_filter_for_input_grad(w))
            )
        assert conv.effective_engine == "gemm"


class TestModelFreeze:
    def test_tree_freeze_matches_eval(self, rng):
        """A model whose operands a training-mode call built returns, in
        eval mode, the bits of a fresh model's eval forward."""
        m = vgg16(classes=4, image=WINO_IMAGE, width_mult=0.125, seed=1)
        x = rng.standard_normal((2, WINO_IMAGE, WINO_IMAGE, 3)).astype(np.float32)
        state = state_dict(m)
        m(Tensor(x))  # train mode: moves the BN statistics too
        want_m = vgg16(classes=4, image=WINO_IMAGE, width_mult=0.125, seed=1)
        load_state_dict(want_m, state_dict(m))
        got = m.eval()(Tensor(x)).data
        np.testing.assert_array_equal(got, want_m.eval()(Tensor(x)).data)
        moved = state_dict(m)
        assert any(not np.array_equal(moved[k], state[k]) for k in state if "running" in k)
        assert _winograd_convs(m, x.shape) == 2  # the first block; GEMM after it

    def test_resnet_freeze(self, rng):
        m = resnet18(classes=4, width_mult=0.0625, seed=1).eval()
        x = rng.standard_normal((1, WINO_IMAGE, WINO_IMAGE, 3)).astype(np.float32)
        want = m(Tensor(x)).data  # builds every conv's operands
        np.testing.assert_array_equal(m(Tensor(x)).data, want)
        fresh = resnet18(classes=4, width_mult=0.0625, seed=1).eval()
        np.testing.assert_array_equal(fresh(Tensor(x)).data, want)
        assert _winograd_convs(m, x.shape) == 5  # the stem and layer1

    @pytest.mark.parametrize("width_mult, image", [(0.125, 32), (0.0625, WINO_IMAGE)])
    def test_frozen_model_honours_force_legacy(self, rng, width_mult, image):
        """A ResNet-18 (every conv GEMM at width 0.125, Winograd blocks at
        the wider image) under ``force_legacy()``: one degraded call per
        conv, the strided ones included, and the bits equal the compiled
        forward's."""
        m = resnet18(classes=4, width_mult=width_mult, seed=1).eval()
        x = rng.standard_normal((2, image, image, 3)).astype(np.float32)
        want = m(Tensor(x)).data  # builds every conv's operands
        strides = [layer.stride for layer, *_ in conv_layer_geometries(m, x.shape)]
        assert 1 in strides and 2 in strides
        with obs.capture():
            with runtime.force_legacy():
                got = m(Tensor(x)).data
            degraded = obs.get_registry().counter("runtime.degraded.calls").total()
        assert degraded == len(strides)
        np.testing.assert_array_equal(got, want)

    def test_frozen_strided_conv_folds_once(self, rng, monkeypatch):
        """A strided conv resolves a stride-2 GEMM executable and folds its
        filters on its first call only, then runs on the bundle it holds;
        every call returns the baseline GEMM's bits."""
        conv = Conv2D(8, 16, 3, stride=2, rng=np.random.default_rng(0)).eval()
        x = rng.standard_normal((3, 9, 9, 8)).astype(np.float32)
        want = conv2d_gemm(x, conv.weight.data, ph=1, pw=1, stride=2) + conv.bias.data
        np.testing.assert_array_equal(conv(Tensor(x)).data, want)
        (_, exe, bundle), = conv._forward_ops.values()
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
        assert conv._forward_ops[(9, 9)][2] is bundle

    def test_registered_model_is_eval_everywhere(self):
        m = vgg16(classes=4, image=8, width_mult=0.0625, seed=1)
        ModelRegistry().register("m", m, image=8, classes=4, warmup=False)
        assert all(not layer.training for layer in m.walk())

    def test_train_after_freeze_resumes_learning(self):
        """Evaluate mid-training, then resume: the round trip must not
        poison the optimiser path."""
        train, _ = synthetic_cifar10(train=48, test=8, image=8, classes=4, noise=0.2)
        m = vgg16(classes=4, image=8, width_mult=0.125, seed=1)
        t = Trainer(m, Adam(m.parameters(), lr=2e-3), record_every=1)
        t.train_step(train.x[:24], train.y[:24])
        m.eval()
        m(Tensor(train.x[:8]))
        m.train()
        first = t.train_step(train.x[:24], train.y[:24])
        for _ in range(6):
            last = t.train_step(train.x[:24], train.y[:24])
        assert last < first


def _vgg(seed: int = 1) -> Module:
    return vgg16(classes=4, image=WINO_IMAGE, width_mult=0.125, seed=seed)


def _step(model: Module, opt, x: np.ndarray, onehot: np.ndarray) -> None:
    opt.zero_grad()
    softmax_cross_entropy(model(Tensor(x)), onehot).backward()
    opt.step()


class TestRetention:
    def test_training_retains_one_entry_per_input_size(self, rng):
        """After SGDM steps every conv holds at most one forward and one
        data-grad entry per input size, and no executable holds a filter
        slot: every layer conv and data grad ran on layer-held operands."""
        m = _vgg()
        opt = SGDM(m.parameters(), lr=1e-2)
        x = rng.standard_normal((2, WINO_IMAGE, WINO_IMAGE, 3)).astype(np.float32)
        onehot = np.eye(4, dtype=np.float32)[[0, 3]]
        for _ in range(3):
            _step(m, opt, x, onehot)
        convs = _convs(m)
        assert _winograd_convs(m, x.shape) > 0
        for conv in convs:
            assert len(conv._forward_ops) == 1
            # The first conv reads the data batch and skips its data grad.
            assert len(conv._grad_ops) == (conv is not convs[0])
        exes = runtime.global_cache().executables()
        assert exes and all(e.cached_filter_versions == 0 for e in exes)


class TestStaleness:
    def test_inplace_write_raises(self):
        conv = _wino_conv()
        with pytest.raises(ValueError, match="read-only"):
            conv.weight.data[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            conv.weight.data *= 2.0

    @pytest.mark.parametrize("update", ["sgdm", "adam", "load_state_dict"])
    def test_next_forward_matches_a_fresh_model(self, rng, update):
        """After each way weights change, the next train-mode forward and
        backward and the next eval-mode forward return the bits of a fresh
        model built with those weights."""
        m = _vgg()
        x = rng.standard_normal((2, WINO_IMAGE, WINO_IMAGE, 3)).astype(np.float32)
        onehot = np.eye(4, dtype=np.float32)[[0, 3]]
        opt = SGDM(m.parameters(), lr=1e-2) if update == "sgdm" else Adam(m.parameters())
        _step(m, opt, x, onehot)  # every conv now holds operands
        if update == "load_state_dict":
            load_state_dict(m, state_dict(_vgg(seed=2)))
        else:
            _step(m, opt, x, onehot)
        fresh = _vgg(seed=3)
        load_state_dict(fresh, state_dict(m))
        for model in (m, fresh):
            model.train()
            for p in model.parameters():
                p.grad = None
            softmax_cross_entropy(model(Tensor(x)), onehot).backward()
        for p, q in zip(m.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(p.grad, q.grad)
        np.testing.assert_array_equal(
            m.eval()(Tensor(x)).data, fresh.eval()(Tensor(x)).data
        )
