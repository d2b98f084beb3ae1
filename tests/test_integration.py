"""Cross-module integration tests: the paths the experiments actually take."""

import numpy as np
import pytest

from repro.baselines import conv2d_direct, conv2d_fft, conv2d_gemm, conv2d_winograd2d
from repro.bench import (
    FIG8_PANELS,
    TABLE3_SHAPES,
    modeled_training_acceleration,
    panel_shapes,
    standard_flops,
)
from repro.core import conv2d_im2col_winograd, plan_convolution
from repro.dlframe import Adam, Tensor, Trainer, conv_layer_geometries, synthetic_cifar10
from repro.dlframe.models import resnet18, vgg16
from repro.gpusim import RTX3060TI, RTX4090, estimate_conv, estimate_cudnn_gemm
from repro.nhwc import ConvShape

from .conftest import TOL_BY_ALPHA, rel_err


class TestFourOracleAgreement:
    """All five convolution implementations agree on one shared problem."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal((2, 12, 15, 6)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 6)).astype(np.float32)
        truth = conv2d_direct(x, w, ph=1, pw=1, dtype=np.float64)
        return x, w, truth

    def test_all_implementations(self, problem):
        x, w, truth = problem
        impls = {
            "fused": conv2d_im2col_winograd(x, w),
            "gemm": conv2d_gemm(x, w, ph=1, pw=1),
            "gemm-seq": conv2d_gemm(x, w, ph=1, pw=1, accumulation="sequential"),
            "fft": conv2d_fft(x, w, ph=1, pw=1),
            "wino2d": conv2d_winograd2d(x, w, m=2),
            "direct32": conv2d_direct(x, w, ph=1, pw=1),
        }
        for name, y in impls.items():
            assert rel_err(y, truth) < 1e-4, name


class TestShapeTablesConsistency:
    def test_every_fig8_shape_plannable(self):
        """Every Experiment-1 shape must take the Winograd path."""
        for name, panel in FIG8_PANELS.items():
            for shape, alpha in panel_shapes(panel):
                plan = plan_convolution(shape, alpha=alpha)
                assert plan.algorithm == "im2col-winograd", (name, shape)

    def test_table3_shapes_need_no_boundary(self):
        """§6.2.1: Table 3's OW are multiples of n — single-segment plans."""
        for name, (alpha, r, ofms) in TABLE3_SHAPES.items():
            n = alpha - r + 1
            for (_, _, ow, _) in ofms:
                assert ow % n == 0, (name, ow)

    def test_flops_metric_matches_convshape(self):
        s = ConvShape.from_ofm(32, 64, 66, 128, r=3)
        assert standard_flops(s) == s.flops

    def test_every_fig8_shape_estimable_on_both_devices(self):
        for name, panel in FIG8_PANELS.items():
            shape, alpha = panel_shapes(panel)[0]
            for device in (RTX3060TI, RTX4090):
                e = estimate_conv(shape, device, alpha=alpha)
                b = estimate_cudnn_gemm(shape, device)
                assert e.gflops > 0 and b.gflops > 0


class TestEndToEndTrainingPath:
    def test_vgg_forward_uses_fused_kernel_results(self, rng):
        """Where the engine rule keeps Winograd (72 channels, OW 8), the
        dlframe Conv2D forward is literally conv2d_im2col_winograd; where it
        picks GEMM (3 channels), literally conv2d_gemm."""
        from repro.dlframe.layers import Conv2D

        for c, engine, reference in (
            (72, "winograd", lambda x, w: conv2d_im2col_winograd(x, w)),
            (3, "gemm", lambda x, w: conv2d_gemm(x, w, ph=1, pw=1)),
        ):
            conv = Conv2D(c, 72, 3, engine="winograd", rng=np.random.default_rng(0))
            assert conv.engine_at(8) == engine
            x = rng.standard_normal((1, 8, 8, c)).astype(np.float32)
            via_layer = conv(Tensor(x)).data
            direct_call = reference(x, conv.weight.data) + conv.bias.data
            np.testing.assert_array_equal(via_layer, direct_call)

    def test_overfit_one_batch_both_engines(self):
        """Both engines can drive a model to (near) zero loss on one batch —
        the classic end-to-end autograd sanity check.  On 40x40 images the
        engine rule keeps the first block (OW 40) on Winograd."""
        train, _ = synthetic_cifar10(train=32, test=8, image=40, classes=4, noise=0.1)
        for engine, winograd_convs in (("winograd", 2), ("gemm", 0)):
            m = vgg16(classes=4, image=40, width_mult=0.125, engine=engine, seed=1)
            t = Trainer(m, Adam(m.parameters(), lr=3e-3), record_every=1)
            for _ in range(25):
                loss = t.train_step(train.x[:32], train.y[:32])
            assert loss < 0.1, engine
            geometries = conv_layer_geometries(m, train.x[:32].shape)
            ran = sum(layer.effective_engine == "winograd" for layer, *_ in geometries)
            assert ran == winograd_convs, engine

    @pytest.mark.parametrize("arch", ["vgg16", "resnet18"])
    def test_first_conv_skips_its_data_grad(self, arch, monkeypatch):
        """A train step computes no data grad for the conv that reads the
        batch: one ``conv2d_input_grad`` call fewer than there are convs (a
        strided conv's col2im data grad is one call too), and the updated
        weights equal, bit for bit, those of the same step on an input that
        asks for its gradient."""
        from repro.dlframe import SGDM, layers, softmax_cross_entropy

        build = {
            "vgg16": lambda: vgg16(classes=4, image=40, width_mult=0.0625, seed=1),
            "resnet18": lambda: resnet18(classes=4, width_mult=0.0625, seed=1),
        }[arch]
        train, _ = synthetic_cifar10(train=4, test=4, image=40, classes=4, noise=0.1)
        x, y = train.x[:4], train.y[:4]
        calls = []
        real = layers.conv2d_input_grad
        monkeypatch.setattr(
            layers, "conv2d_input_grad", lambda *a, **k: calls.append(1) or real(*a, **k)
        )

        skipped = build()
        Trainer(skipped, SGDM(skipped.parameters(), lr=0.1)).train_step(x, y)
        assert len(calls) == len(conv_layer_geometries(skipped, x.shape)) - 1

        full = build()
        full.train()
        opt = SGDM(full.parameters(), lr=0.1)
        xt = Tensor(x, requires_grad=True)
        loss = softmax_cross_entropy(full(xt), y)
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert xt.grad is not None
        for got, want in zip(skipped.parameters(), full.parameters(), strict=True):
            np.testing.assert_array_equal(got.data, want.data)

    def test_resnet_dispatch_consistency(self):
        """The §5.7 dispatch inside ResNet: strided convs report gemm, the
        rest report the engine the rule picked for the width they ran at —
        Winograd for the stem and layer1 at OW 40, GEMM for the rest."""
        m = resnet18(width_mult=0.0625, engine="winograd")
        x = np.zeros((1, 40, 40, 3), dtype=np.float32)
        m.eval()
        m(Tensor(x))
        engines = [
            (layer.stride, iw, layer.engine_at(iw), layer.effective_engine)
            for layer, _, iw, _, _ in conv_layer_geometries(m, x.shape)
        ]
        for stride, iw, picked, ran in engines:
            assert ran == picked
            if stride != 1:
                assert ran == "gemm"
            else:
                assert ran == ("winograd" if iw == 40 else "gemm")
        assert sum(ran == "winograd" for *_, ran in engines) == 5

    def test_modeled_acceleration_structure(self):
        """Experiment-3 structure via the model: VGG16x5 > VGG16, both >= ~1."""
        from repro.dlframe.models import vgg16x5

        a16 = modeled_training_acceleration(
            vgg16(image=32, engine="winograd"),
            vgg16(image=32, engine="gemm"),
            image=32, batch=512, device=RTX3060TI,
        )
        a16x5 = modeled_training_acceleration(
            vgg16x5(image=32, engine="winograd"),
            vgg16x5(image=32, engine="gemm"),
            image=32, batch=512, device=RTX3060TI,
        )
        assert a16x5 > a16 > 0.95


class TestGradientFlowEndToEnd:
    def test_full_network_gradcheck_spotwise(self, rng):
        """Spot finite-difference check through a whole (tiny) network."""
        from repro.dlframe.losses import softmax_cross_entropy

        m = vgg16(classes=3, image=8, width_mult=0.0625, engine="winograd", seed=4)
        x = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        onehot = np.eye(3, dtype=np.float32)[[0, 2]]

        def loss_value():
            return float(softmax_cross_entropy(m(Tensor(x)), onehot).data)

        loss = softmax_cross_entropy(m(Tensor(x)), onehot)
        loss.backward()
        params = m.parameters()
        p = params[0]  # first conv weight
        idx = (0, 1, 1, 0)
        analytic = float(p.grad[idx])
        eps = 1e-2
        orig = p.data

        def nudged(delta):
            w = orig.copy()
            w[idx] += delta
            return w

        p.data = nudged(eps)
        fp = loss_value()
        p.data = nudged(-eps)
        fm = loss_value()
        p.data = orig
        numeric = (fp - fm) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=0.15, abs=5e-3)
