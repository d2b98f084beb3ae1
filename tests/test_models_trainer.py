"""Tests for the model zoo, synthetic data and trainer (Experiment 3 path)."""

import numpy as np
import pytest

from repro.dlframe import Adam, SGDM, Tensor, Trainer, synthetic_cifar10, synthetic_ilsvrc
from repro.dlframe.layers import Conv2D, LeakyReLU, Sequential
from repro.dlframe.models import build_vgg, resnet18, resnet34, vgg16, vgg16x5, vgg16x7, vgg19
from repro.dlframe.trainer import conv_layer_geometries, measure_training_memory, smooth_losses


def tiny_vgg(engine="winograd", image=8, **kw):
    return vgg16(classes=4, image=image, width_mult=0.0625, engine=engine, seed=7, **kw)


class TestVGGConstruction:
    def test_vgg16_conv_count(self):
        m = vgg16(image=32, width_mult=0.125)
        from repro.dlframe.layers import Conv2D

        convs = [l for l in m if isinstance(l, Conv2D)]
        assert len(convs) == 13  # 2+2+3+3+3

    def test_vgg19_conv_count(self):
        from repro.dlframe.layers import Conv2D

        convs = [l for l in vgg19(image=32, width_mult=0.125) if isinstance(l, Conv2D)]
        assert len(convs) == 16

    def test_vgg16x5_all_filters_5x5(self):
        from repro.dlframe.layers import Conv2D

        for l in vgg16x5(image=32, width_mult=0.125):
            if isinstance(l, Conv2D):
                assert l.kernel == 5

    def test_vgg16x7_first4_only(self):
        """§6.3.1: only the first 4 conv layers become 7x7."""
        from repro.dlframe.layers import Conv2D

        kernels = [l.kernel for l in vgg16x7(image=32, width_mult=0.125) if isinstance(l, Conv2D)]
        assert kernels[:4] == [7, 7, 7, 7]
        assert all(k == 3 for k in kernels[4:])

    def test_five_batchnorms(self):
        """The paper adds 5 BatchNorm layers to VGG (§6.3.1)."""
        from repro.dlframe.layers import BatchNorm2D

        bns = [l for l in vgg16(image=32, width_mult=0.125) if isinstance(l, BatchNorm2D)]
        assert len(bns) == 5

    def test_forward_shape(self, rng):
        m = tiny_vgg()
        y = m(Tensor(rng.standard_normal((2, 8, 8, 3)).astype(np.float32)))
        assert y.shape == (2, 4)

    def test_unknown_config(self):
        with pytest.raises(ValueError, match="unknown VGG"):
            build_vgg("vgg13")


class TestResNetConstruction:
    def test_block_counts(self):
        from repro.dlframe.models.resnet import BasicBlock

        m18 = resnet18(width_mult=0.0625)
        m34 = resnet34(width_mult=0.0625)
        assert len([b for b in m18.stages if isinstance(b, BasicBlock)]) == 8
        assert len([b for b in m34.stages if isinstance(b, BasicBlock)]) == 16

    def test_strided_convs_fall_back_to_gemm(self):
        """§6.3.2: ResNet's downsampling convs can't use Winograd."""
        m = resnet18(width_mult=0.0625, engine="winograd")
        assert m.strided_conv_count() == 6  # 3 stages x (conv1 + shortcut)

    def test_forward_shape(self, rng):
        m = resnet18(classes=5, width_mult=0.0625)
        y = m(Tensor(rng.standard_normal((2, 16, 16, 3)).astype(np.float32)))
        assert y.shape == (2, 5)

    def test_resnet34_deeper_than_18(self):
        assert resnet34(width_mult=0.0625).num_parameters() > resnet18(
            width_mult=0.0625
        ).num_parameters()


class TestSyntheticData:
    def test_shapes_and_ranges(self):
        train, test = synthetic_cifar10(train=64, test=16)
        assert train.x.shape == (64, 32, 32, 3)
        assert train.y.shape == (64, 10)
        assert train.x.dtype == np.float32
        assert train.x.min() >= -1.0 and train.x.max() <= 1.0
        np.testing.assert_allclose(train.y.sum(axis=1), 1.0)

    def test_deterministic_by_seed(self):
        a, _ = synthetic_cifar10(train=32, test=8, seed=5)
        b, _ = synthetic_cifar10(train=32, test=8, seed=5)
        np.testing.assert_array_equal(a.x, b.x)

    def test_train_test_share_structure(self):
        """A nearest-template classifier transfers train -> test, i.e. the
        two splits carry the same class structure."""
        train, test = synthetic_cifar10(train=256, test=64, image=16, noise=0.2)
        protos = np.stack(
            [train.x[train.y[:, c] == 1].mean(axis=0) for c in range(10)]
        ).reshape(10, -1)
        preds = ((test.x.reshape(len(test), -1) @ protos.T)).argmax(axis=1)
        # cosine-ish nearest prototype; template SNR makes this nearly exact
        acc = (preds == test.y.argmax(axis=1)).mean()
        assert acc > 0.8

    def test_batches_cover_everything(self):
        train, _ = synthetic_cifar10(train=70, test=8)
        seen = 0
        for xb, yb in train.batches(32):
            seen += len(xb)
            assert len(xb) == len(yb)
        assert seen == 70

    def test_batches_validation(self):
        train, _ = synthetic_cifar10(train=8, test=4)
        with pytest.raises(ValueError):
            next(train.batches(0))

    def test_ilsvrc_geometry(self):
        train, _ = synthetic_ilsvrc(train=16, test=4, image=32, classes=20)
        assert train.x.shape == (16, 32, 32, 3)
        assert train.y.shape == (16, 20)


class TestTrainer:
    def test_loss_decreases(self):
        train, test = synthetic_cifar10(train=128, test=32, image=8, classes=4, noise=0.2)
        m = vgg16(classes=4, image=8, width_mult=0.125, engine="winograd", seed=7)
        t = Trainer(m, Adam(m.parameters(), lr=2e-3), record_every=1)
        rec = t.fit(train, test, epochs=8, batch_size=32)
        assert rec.losses[-1] < 0.3 * rec.losses[0]
        assert rec.train_accuracy > 0.8

    def test_winograd_and_gemm_converge_alike(self):
        """Experiment 3's core claim at miniature scale: same model, same
        data, same seeds — the two engines' loss curves track each other.
        On 40x40 images the engine rule keeps the first block (OW 40) on
        Winograd."""
        train, _ = synthetic_cifar10(train=96, test=8, image=40, classes=4, noise=0.2)
        recs = {}
        for engine in ("winograd", "gemm"):
            m = tiny_vgg(engine, image=40)
            t = Trainer(m, Adam(m.parameters(), lr=1e-3), record_every=1)
            recs[engine] = t.fit(train, epochs=3, batch_size=32, seed=11)
            geometries = conv_layer_geometries(m, (1, 40, 40, 3))
            ran = sum(layer.effective_engine == "winograd" for layer, *_ in geometries)
            assert ran == (2 if engine == "winograd" else 0)
        a = np.array(recs["winograd"].losses)
        b = np.array(recs["gemm"].losses)
        np.testing.assert_allclose(a, b, rtol=0.08, atol=0.05)

    def test_memory_model_winograd_smaller(self):
        """Tables 4/5: the fused engine needs no im2col workspace.  The
        second conv (72 channels at 8x8) is one the engine rule keeps on
        Winograd, and it has the model's largest im2col matrix."""

        def net(engine):
            rng = np.random.default_rng(7)
            return Sequential(
                Conv2D(3, 72, 3, engine=engine, rng=rng),
                LeakyReLU(),
                Conv2D(72, 72, 3, engine=engine, rng=rng),
            )

        shape = (32, 8, 8, 3)
        mw = measure_training_memory(net("winograd"), shape)
        mg = measure_training_memory(net("gemm"), shape)
        assert mw < mg

    def test_record_fields(self):
        train, test = synthetic_cifar10(train=32, test=16, image=8, classes=4)
        m = tiny_vgg()
        t = Trainer(m, SGDM(m.parameters(), lr=1e-3))
        rec = t.fit(train, test, epochs=1, batch_size=16)
        assert len(rec.epoch_seconds) == 1
        assert rec.seconds_per_epoch > 0
        assert rec.weight_bytes == m.weight_bytes()
        assert rec.memory_bytes > 0
        assert len(rec.losses) == len(rec.loss_steps)

    def test_resnet_trains(self):
        train, _ = synthetic_cifar10(train=64, test=8, image=8, classes=4, noise=0.2)
        m = resnet18(classes=4, width_mult=0.0625, engine="winograd", seed=3)
        t = Trainer(m, Adam(m.parameters(), lr=1e-3), record_every=1)
        rec = t.fit(train, epochs=3, batch_size=32)
        assert rec.losses[-1] < rec.losses[0]

    def test_smooth_losses(self):
        xs = list(map(float, range(20)))
        sm = smooth_losses(xs, window=10)
        assert sm == [4.5, 14.5]
        with pytest.raises(ValueError):
            smooth_losses(xs, window=0)
