"""Tests for conv_layer_geometries and the training memory model details."""

import numpy as np
import pytest

from repro import runtime
from repro.core import rowblocks
from repro.dlframe import (
    SGDM,
    Tensor,
    Trainer,
    conv_layer_geometries,
    measure_training_memory,
    synthetic_cifar10,
)
from repro.dlframe.layers import Conv2D, LeakyReLU, MaxPool2D, Sequential
from repro.dlframe.models import resnet18, vgg16, vgg16x7


class TestGeometryTracking:
    def test_sequential_with_pool(self):
        rng = np.random.default_rng(0)
        m = Sequential(
            Conv2D(3, 8, 3, rng=rng),
            LeakyReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, 3, rng=rng),
        )
        geo = conv_layer_geometries(m, (1, 16, 16, 3))
        assert [(g[1], g[2]) for g in geo] == [(16, 16), (8, 8)]
        assert [(g[3], g[4]) for g in geo] == [(16, 16), (8, 8)]

    def test_stride_halves(self):
        rng = np.random.default_rng(0)
        m = Sequential(Conv2D(3, 8, 3, stride=2, rng=rng), Conv2D(8, 8, 3, rng=rng))
        geo = conv_layer_geometries(m, (1, 16, 16, 3))
        assert (geo[0][3], geo[0][4]) == (8, 8)
        assert (geo[1][1], geo[1][2]) == (8, 8)

    def test_vgg16x7_kernel_mix_tracked(self):
        m = vgg16x7(image=32, width_mult=0.125)
        geo = conv_layer_geometries(m, (1, 32, 32, 3))
        kernels = [g[0].kernel for g in geo]
        assert kernels[:4] == [7, 7, 7, 7] and kernels[4] == 3

    def test_resnet_shortcut_sees_block_input(self):
        """The 1x1 downsampling shortcut must read the block's input extent,
        not the post-conv1 extent."""
        m = resnet18(width_mult=0.0625)
        geo = conv_layer_geometries(m, (1, 32, 32, 3))
        shortcuts = [g for g in geo if g[0].kernel == 1]
        assert shortcuts, "expected 1x1 shortcut convs"
        for layer, ih, iw, oh, ow in shortcuts:
            assert ih == 2 * oh and iw == 2 * ow  # stride-2 from block input

    def test_geometry_count_matches_conv_count(self):
        m = vgg16(image=32, width_mult=0.125)
        geo = conv_layer_geometries(m, (1, 32, 32, 3))
        assert len(geo) == 13


class TestMemoryModelDetails:
    def test_memory_grows_with_batch(self):
        """Activations scale with batch; parameters/grads don't.  At this
        tiny width params dominate, so assert growth, not proportionality."""
        m = vgg16(classes=4, image=8, width_mult=0.0625, seed=0)
        small = measure_training_memory(m, (4, 8, 8, 3))
        big = measure_training_memory(m, (32, 8, 8, 3))
        assert big > 1.3 * small
        # the batch-dependent part scales ~8x for an 8x batch
        huge = measure_training_memory(m, (64, 8, 8, 3))
        assert (huge - big) > 0.8 * (big - small)

    def test_gemm_engine_charges_workspace(self):
        def net(engine):
            rng = np.random.default_rng(0)
            return Sequential(
                Conv2D(3, 72, 3, engine=engine, rng=rng),
                LeakyReLU(),
                Conv2D(72, 72, 3, engine=engine, rng=rng),
            )

        mw, mg = net("winograd"), net("gemm")
        shape = (16, 8, 8, 3)
        diff = measure_training_memory(mg, shape) - measure_training_memory(mw, shape)
        # The gap is exactly the gap between the largest row-blocked im2col
        # operands (same activations/params).  The engine rule runs the
        # 3-channel conv on GEMM in both, so the Winograd model still pays
        # its (smaller) operand; the 72-channel conv is Winograd there.
        from repro.dlframe.trainer import _conv_workspace_bytes

        ws_w, ws_g = _conv_workspace_bytes(mw, shape), _conv_workspace_bytes(mg, shape)
        assert 0 < ws_w < ws_g
        assert diff == ws_g - ws_w
        # An 8x8 map is R = 64 rows per image: one image per 64-row block.
        assert ws_g == 4 * 16 * 64 * 72 * 9

    def test_rule_picked_gemm_charges_padded_row_blocks(self):
        """A 2x2 map has R = 4 rows per image: blocks of 16 images, 64 rows,
        so a batch of 3 is charged one whole 64-row block."""
        m = Sequential(Conv2D(8, 8, 3, rng=np.random.default_rng(0)))
        from repro.dlframe.trainer import _conv_workspace_bytes

        assert _conv_workspace_bytes(m, (3, 2, 2, 8)) == 4 * 64 * 8 * 9

    def test_strided_resnet_charges_workspace_even_when_winograd(self):
        """ResNet's stride-2 convs run GEMM under either engine (§5.7), so
        even the 'Alpha' configuration carries some workspace."""
        m = resnet18(classes=4, width_mult=0.0625, engine="winograd", seed=0)
        from repro.dlframe.trainer import _conv_workspace_bytes

        assert _conv_workspace_bytes(m, (8, 16, 16, 3)) > 0

    @pytest.mark.parametrize("engine", ["winograd", "gemm"])
    @pytest.mark.parametrize("arch", ["vgg16", "resnet18"])
    def test_workspace_is_the_largest_gemm_a_step_runs(self, arch, engine):
        """After one train step the accounted workspace equals the largest
        blocked operand among the GEMM executables the step ran, forwards
        and data grads alike."""
        from repro.dlframe.trainer import _conv_workspace_bytes

        m = {
            "vgg16": lambda: vgg16(classes=4, image=40, width_mult=0.125, engine=engine, seed=1),
            "resnet18": lambda: resnet18(classes=4, width_mult=0.0625, engine=engine, seed=1),
        }[arch]()
        train, _ = synthetic_cifar10(train=4, test=4, image=40, classes=4, noise=0.1)
        runtime.clear_cache()
        try:
            Trainer(m, SGDM(m.parameters(), lr=0.1)).train_step(train.x, train.y)
            exes = runtime.global_cache().executables()
        finally:
            runtime.clear_cache()
        operands = [
            4 * int(np.prod(rowblocks.blocked_shape(
                (), len(train.x), e.sig.fh * e.sig.fw * e.sig.ic, e.oh * e.ow
            )))
            for e in exes
            if e.sig.algorithm == "gemm"
        ]
        assert operands
        assert _conv_workspace_bytes(m, train.x.shape) == max(operands)
