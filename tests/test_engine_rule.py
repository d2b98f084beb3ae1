"""The per-layer engine rule: which convs run Winograd, which run GEMM.

:func:`repro.runtime.conv_engine` is one pure function of a conv's
signature.  These tests pin its table on the served architectures and hold
every layer it sends to GEMM to a GEMM's error bound against fp64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.direct import conv2d_direct
from repro.dlframe import Tensor, conv_layer_geometries
from repro.dlframe.layers import Conv2D
from repro.dlframe.models import resnet18, resnet34, vgg16
from repro.runtime import conv_engine
from repro.runtime.signature import GEMM_REGION

W, G = "winograd", "gemm"

#: (IC, OC, kernel, stride, IH) -> engine of every conv of VGG16 on 32x32.
VGG16_TABLE = {
    (3, 64, 3, 1, 32): G,  # few input channels
    (64, 64, 3, 1, 32): W,
    (64, 128, 3, 1, 16): G,  # 64 channels at OW 16
    (128, 128, 3, 1, 16): W,
    (128, 256, 3, 1, 8): W,
    (256, 256, 3, 1, 8): W,
    (256, 512, 3, 1, 4): W,
    (512, 512, 3, 1, 4): W,
    (512, 512, 3, 1, 2): G,  # OW 2
}

#: The same for ResNet-18 and ResNet-34 at full width on 32x32.
RESNET_TABLE = {
    (3, 64, 3, 1, 32): G,  # the stem
    (64, 64, 3, 1, 32): W,
    (64, 128, 3, 2, 32): G,  # strided convs always run GEMM (§5.7)
    (64, 128, 1, 2, 32): G,
    (128, 128, 3, 1, 16): W,
    (128, 256, 3, 2, 16): G,
    (128, 256, 1, 2, 16): G,
    (256, 256, 3, 1, 8): W,
    (256, 512, 3, 2, 8): G,
    (256, 512, 1, 2, 8): G,
    (512, 512, 3, 1, 4): W,
}


def _table(model) -> dict[tuple[int, int, int, int, int], str]:
    out = {}
    for layer, ih, iw, _, _ in conv_layer_geometries(model, (1, 32, 32, 3)):
        key = (layer.ic, layer.oc, layer.kernel, layer.stride, ih)
        out.setdefault(key, set()).add(layer.engine_at(iw))
    return {key: engines.pop() for key, engines in out.items() if len(engines) == 1}


@pytest.mark.parametrize(
    "build,table",
    [(vgg16, VGG16_TABLE), (resnet18, RESNET_TABLE), (resnet34, RESNET_TABLE)],
    ids=["vgg16", "resnet18", "resnet34"],
)
def test_rule_table_at_full_width(build, table):
    assert _table(build(image=32) if build is vgg16 else build()) == table


@pytest.mark.parametrize("build", [resnet18, resnet34])
def test_served_resnets_at_width_eighth_run_gemm_throughout(build):
    """8-64 channels: every conv of the served ResNets is a GEMM."""
    engines = set(_table(build(width_mult=0.125)).values())
    assert engines == {G}


def test_rule_is_a_staircase_in_width_and_channels():
    """Monotone: fewer channels or fewer columns never turn GEMM into Winograd."""
    for ow in (1, 2, 3, 4, 5, 8, 16, 17, 32, 64):
        for c in (1, 3, 8, 32, 33, 64, 65, 128, 129, 256, 512):
            if conv_engine(c, c, 3, 3, ow) == G:
                assert conv_engine(c - 1 or 1, c, 3, 3, ow) == G
                assert conv_engine(c, c, 3, 3, max(ow - 1, 1)) == G
    assert conv_engine(513, 513, 3, 3, 3) == W
    assert conv_engine(33, 33, 3, 3, 17) == W
    assert conv_engine(33, 33, 3, 3, 16) == G
    assert all(conv_engine(c, c, 3, 3, ow) == G for ow, c in GEMM_REGION if c < 1e9)
    assert conv_engine(512, 512, 1, 1, 32) == G  # no Gamma kernel for width 1


@pytest.mark.parametrize("k", [2, 4, 5, 7, 9])
def test_rule_keeps_unmeasured_filters_on_winograd(k):
    """The grid measured 3x3 filters only: every other width Winograd covers
    stays on Winograd, even at 1 channel and 1 column."""
    assert conv_engine(1, 1, k, k, 1) == W
    assert conv_engine(3, 64, k, k, 2) == W


def test_rule_keeps_maps_wider_than_the_grid_on_winograd():
    """The grid stopped at OW 32: wider maps stay on Winograd."""
    assert conv_engine(8, 8, 3, 3, 32) == G
    assert conv_engine(8, 8, 3, 3, 33) == W
    assert conv_engine(3, 64, 3, 3, 224) == W


def _rule_picked_gemm_convs() -> list[tuple[int, int, int, int]]:
    """``(IC, OC, kernel, IH)`` of every unit-stride conv the rule sends to
    GEMM in VGG16 and ResNet-18/34, at full width and the served 0.125."""
    seen = set()
    for model in (
        vgg16(image=32), resnet18(), resnet34(),
        vgg16(image=32, width_mult=0.125), resnet18(width_mult=0.125),
        resnet34(width_mult=0.125),
    ):
        for layer, ih, iw, _, _ in conv_layer_geometries(model, (1, 32, 32, 3)):
            if layer.stride == 1 and layer.engine_at(iw) == G:
                seen.add((layer.ic, layer.oc, layer.kernel, ih))
    return sorted(seen)


RULE_GEMM = _rule_picked_gemm_convs()


def test_rule_picks_gemm_somewhere():
    assert len(RULE_GEMM) >= 6


@pytest.mark.parametrize("ic,oc,k,side", RULE_GEMM, ids=lambda v: str(v))
def test_rule_picked_gemm_within_fp32_dot_product_bound(ic, oc, k, side):
    """Every output of a rule-picked GEMM layer is within the a-priori bound
    of an fp32 dot product of length ``GK = FH*FW*IC`` in any summation
    order, ``gamma_GK * sum |x||w|`` — the CuGEMM chain of Table 3, whose
    error grows with ``GK`` — against the fp64 direct convolution."""
    rng = np.random.default_rng(ic * 1000 + oc + side)
    conv = Conv2D(ic, oc, k, rng=rng, bias=False).eval()
    x = rng.standard_normal((2, side, side, ic)).astype(np.float32)
    got = conv(Tensor(x)).data
    assert conv.effective_engine == G
    p = conv.padding
    w = conv.weight.data
    exact = conv2d_direct(x, w, ph=p, pw=p, dtype=np.float64)
    scale = conv2d_direct(np.abs(x), np.abs(w), ph=p, pw=p, dtype=np.float64)
    gk = k * k * ic
    u = 2.0**-24
    gamma = gk * u / (1 - gk * u)
    err = np.abs(got.astype(np.float64) - exact)
    assert np.all(err <= gamma * scale * (1 + 1e-9)), float((err / (gamma * scale)).max())
