"""Tests for dlframe layers: every layer's gradient against finite
differences (DESIGN.md invariant 7), engine dispatch semantics, and bit
identity of the layer forwards against their original select/gather
formulas, kept here as oracles."""

import numpy as np
import pytest

from repro import obs, runtime
from repro.baselines.gemm import conv2d_gemm
from repro.dlframe.autograd import Tensor, make_op
from repro.dlframe.layers import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    GlobalAvgPool2D,
    LeakyReLU,
    Linear,
    MaxPool2D,
    Module,
    Parameter,
    Sequential,
    add,
)
from repro.dlframe.optim import SGDM
from repro.serve import ModelRegistry
from repro.serve.registry import MODEL_BUILDERS


#: Channels at which the engine rule keeps a 3x3 or 5x5 conv on Winograd
#: for any output width above 4.
WINO_C = 65


def check_input_grad(layer, x0, seed_grad, f=None, rtol=2e-2, atol=2e-2):
    """Finite-difference check of d(sum(seed*layer(x)))/dx."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = layer(x)
    out.backward(seed_grad)
    if f is None:
        f = lambda xd: layer(Tensor(xd)).data
    eps = 1e-3
    num = np.zeros_like(x0, dtype=np.float64)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x0.copy(), x0.copy()
        xp[i] += eps
        xm[i] -= eps
        num[i] = ((f(xp) - f(xm)) * seed_grad).sum() / (2 * eps)
        it.iternext()
    np.testing.assert_allclose(x.grad, num, rtol=rtol, atol=atol)


class TestConv2D:
    @pytest.mark.parametrize("engine", ["winograd", "gemm"])
    def test_engines_agree_forward(self, rng, engine):
        conv = Conv2D(3, 4, 3, engine=engine, rng=np.random.default_rng(1))
        x = Tensor(rng.standard_normal((2, 8, 9, 3)).astype(np.float32))
        y = conv(x)
        assert y.shape == (2, 8, 9, 4)

    def test_winograd_and_gemm_numerically_close(self, rng):
        r1, r2 = np.random.default_rng(1), np.random.default_rng(1)
        cw = Conv2D(WINO_C, WINO_C, 3, engine="winograd", rng=r1)
        cg = Conv2D(WINO_C, WINO_C, 3, engine="gemm", rng=r2)
        assert cw.engine_at(9) == "winograd"
        x = rng.standard_normal((2, 8, 9, WINO_C)).astype(np.float32)
        np.testing.assert_allclose(
            cw(Tensor(x)).data, cg(Tensor(x)).data, rtol=1e-4, atol=1e-4
        )

    @pytest.mark.parametrize("engine", ["winograd", "gemm"])
    def test_input_grad(self, rng, engine):
        conv = Conv2D(WINO_C, WINO_C, 3, engine=engine, rng=np.random.default_rng(1))
        assert conv.engine_at(5) == engine
        x0 = rng.standard_normal((1, 2, 5, WINO_C)).astype(np.float32)
        seed = rng.standard_normal((1, 2, 5, WINO_C)).astype(np.float32)
        check_input_grad(conv, x0, seed)

    def test_rule_picked_gemm_input_grad(self, rng):
        """Few channels: the rule runs the forward and, on its own
        signature, the data grad on GEMM."""
        conv = Conv2D(2, 3, 3, engine="winograd", rng=np.random.default_rng(1))
        assert conv.engine_at(5) == conv.engine_at(5, data_grad=True) == "gemm"
        x0 = rng.standard_normal((1, 5, 5, 2)).astype(np.float32)
        seed = rng.standard_normal((1, 5, 5, 3)).astype(np.float32)
        check_input_grad(conv, x0, seed)
        assert conv.effective_engine == "gemm"

    def test_weight_and_bias_grads(self, rng):
        for c, engine in ((WINO_C, "winograd"), (2, "gemm")):
            conv = Conv2D(c, c, 3, engine="winograd", rng=np.random.default_rng(1))
            x = Tensor(rng.standard_normal((1, 5, 5, c)).astype(np.float32))
            seed = rng.standard_normal((1, 5, 5, c)).astype(np.float32)
            conv(x).backward(seed)
            assert conv.effective_engine == engine
            np.testing.assert_allclose(conv.bias.grad, seed.sum(axis=(0, 1, 2)), rtol=1e-4)
            assert conv.weight.grad.shape == conv.weight.shape

    def test_strided_grads_match_gemm_reference(self, rng):
        """Strided path: forward vs direct, grads vs finite differences are
        covered in layers smoke; here check output geometry + engine."""
        conv = Conv2D(2, 3, 3, stride=2, engine="winograd", rng=np.random.default_rng(1))
        assert conv.effective_engine == "gemm"  # §5.7 dispatch
        x = Tensor(rng.standard_normal((1, 8, 8, 2)).astype(np.float32), requires_grad=True)
        y = conv(x)
        assert y.shape == (1, 4, 4, 3)
        y.backward(np.ones_like(y.data))
        assert x.grad is not None and conv.weight.grad is not None

    def test_strided_input_grad_finite_diff(self, rng):
        conv = Conv2D(2, 2, 3, stride=2, engine="gemm", rng=np.random.default_rng(2))
        x0 = rng.standard_normal((1, 7, 7, 2)).astype(np.float32)
        seed = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        check_input_grad(conv, x0, seed)

    @pytest.mark.parametrize("stride", [2, 3])
    @pytest.mark.parametrize("k,p", [(1, 0), (3, 0), (3, 1), (3, 2)])
    @pytest.mark.parametrize("size", [7, 8])
    def test_strided_grads_match_fp64(self, rng, stride, k, p, size):
        """A strided conv's dx and dW against float64 references: dW the
        stride-sampled correlation of the padded input with g, dx the
        explicit scatter of g through the filters."""
        conv = Conv2D(3, 4, k, stride=stride, padding=p, rng=np.random.default_rng(1))
        x = Tensor(rng.standard_normal((2, size, size, 3)).astype(np.float32), requires_grad=True)
        y = conv(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        y.backward(g)
        n, oh, ow, _ = g.shape
        g64, w64 = g.astype(np.float64), conv.weight.data.astype(np.float64)
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (p, p), (p, p), (0, 0)))
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w64)
        for i in range(k):
            for j in range(k):
                rows = (
                    slice(None),
                    slice(i, i + oh * stride, stride),
                    slice(j, j + ow * stride, stride),
                )
                dw[:, i, j, :] = np.einsum("nhwo,nhwc->oc", g64, xp[rows])
                dxp[rows] += np.einsum("nhwo,oc->nhwc", g64, w64[:, i, j, :])
        dx = dxp[:, p : p + size, p : p + size, :]
        np.testing.assert_allclose(x.grad, dx, rtol=1e-5, atol=1e-5 * np.abs(dx).max())
        np.testing.assert_allclose(conv.weight.grad, dw, rtol=1e-5, atol=1e-5 * np.abs(dw).max())

    @pytest.mark.parametrize("k,p", [(1, 0), (16, 7)])
    def test_uncovered_width_trains_as_gemm(self, rng, k, p):
        """A unit-stride Winograd-engine conv whose filter width no
        Gamma_alpha kernel covers runs its forward and data grad on GEMM,
        and trains a step bit for bit as the GEMM engine does."""
        x0 = rng.standard_normal((2, 18, 18, 8)).astype(np.float32)
        seed = rng.standard_normal((2, 19 - k + 2 * p, 19 - k + 2 * p, 16)).astype(np.float32)
        runs = []
        for engine in ("winograd", "gemm"):
            conv = Conv2D(8, 16, k, padding=p, engine=engine, rng=np.random.default_rng(1))
            x = Tensor(x0, requires_grad=True)
            y = conv(x)
            y.backward(seed)
            SGDM(conv.parameters(), lr=0.1).step()
            runs.append((y.data, x.grad, conv.weight.grad, conv.weight.data))
            assert conv.engine_at(18) == conv.engine_at(18, data_grad=True) == "gemm"
        for got, want in zip(*runs, strict=True):
            _assert_bits_equal(got, want)

    def test_kernel5_uses_gamma8(self, rng):
        conv = Conv2D(WINO_C, 2 * WINO_C, 5, engine="winograd", rng=np.random.default_rng(1))
        x = Tensor(rng.standard_normal((1, 9, 9, WINO_C)).astype(np.float32))
        with obs.capture():
            assert conv(x).shape == (1, 9, 9, 2 * WINO_C)
            spans = [r for r, _ in obs.get_tracer().iter_spans() if r.name == "conv2d"]
        assert conv.effective_engine == "winograd"
        assert spans and spans[0].attrs["alpha"] == 8

    def test_bad_engine(self):
        with pytest.raises(ValueError, match="engine"):
            Conv2D(2, 2, 3, engine="fft")

    def test_no_bias(self, rng):
        conv = Conv2D(2, 2, 3, engine="gemm", bias=False, rng=np.random.default_rng(1))
        assert conv.bias is None
        assert len(conv.parameters()) == 1


class TestLinear:
    def test_forward_and_grads(self, rng):
        lin = Linear(6, 4, rng=np.random.default_rng(2))
        x0 = rng.standard_normal((3, 6)).astype(np.float32)
        seed = rng.standard_normal((3, 4)).astype(np.float32)
        check_input_grad(lin, x0, seed)
        lin.weight.zero_grad()  # check_input_grad already backpropped once
        lin.bias.zero_grad()
        x = Tensor(x0, requires_grad=True)
        lin(x).backward(seed)
        np.testing.assert_allclose(lin.weight.grad, x0.T @ seed, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(lin.bias.grad, seed.sum(axis=0), rtol=1e-4)


class TestBatchNorm:
    def test_normalises_in_training(self, rng):
        bn = BatchNorm2D(4)
        x = Tensor(rng.standard_normal((8, 5, 5, 4)).astype(np.float32) * 3 + 2)
        y = bn(x)
        np.testing.assert_allclose(y.data.mean(axis=(0, 1, 2)), 0, atol=1e-5)
        np.testing.assert_allclose(y.data.std(axis=(0, 1, 2)), 1, atol=1e-3)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2D(3)
        for _ in range(20):
            bn(Tensor(rng.standard_normal((16, 4, 4, 3)).astype(np.float32) * 2 + 1))
        bn.eval()
        x = rng.standard_normal((4, 4, 4, 3)).astype(np.float32) * 2 + 1
        y = bn(Tensor(x))
        expect = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(y.data, expect, rtol=1e-4, atol=1e-4)

    def test_input_grad(self, rng):
        bn = BatchNorm2D(2)
        x0 = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        seed = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)

        def f(xd):
            fresh = BatchNorm2D(2)  # avoid running-stat pollution
            return fresh(Tensor(xd)).data

        check_input_grad(bn, x0, seed, f=f)

    def test_gamma_beta_grads(self, rng):
        bn = BatchNorm2D(3)
        x = Tensor(rng.standard_normal((4, 2, 2, 3)).astype(np.float32))
        seed = rng.standard_normal((4, 2, 2, 3)).astype(np.float32)
        bn(x).backward(seed)
        np.testing.assert_allclose(bn.beta.grad, seed.sum(axis=(0, 1, 2)), rtol=1e-4)
        assert bn.gamma.grad.shape == (3,)


class TestActivationsAndPooling:
    def test_leaky_relu_values_and_grad(self, rng):
        act = LeakyReLU(0.1)
        x0 = np.array([[-2.0, 0.5, -0.1, 3.0]], dtype=np.float32)
        x = Tensor(x0, requires_grad=True)
        y = act(x)
        np.testing.assert_allclose(y.data, [[-0.2, 0.5, -0.01, 3.0]], rtol=1e-6)
        y.backward(np.ones_like(x0))
        np.testing.assert_allclose(x.grad, [[0.1, 1.0, 0.1, 1.0]])

    def test_maxpool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        y = MaxPool2D(2)(Tensor(x))
        np.testing.assert_array_equal(y.data[0, :, :, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_argmax(self):
        x0 = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        x = Tensor(x0, requires_grad=True)
        MaxPool2D(2)(x).backward(np.ones((1, 2, 2, 1), dtype=np.float32))
        expect = np.zeros((1, 4, 4, 1), dtype=np.float32)
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expect[0, i, j, 0] = 1
        np.testing.assert_array_equal(x.grad, expect)

    def test_maxpool_indivisible_rejected(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            MaxPool2D(2)(Tensor(rng.standard_normal((1, 5, 4, 1)).astype(np.float32)))

    def test_global_avgpool(self, rng):
        x0 = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        seed = rng.standard_normal((2, 5)).astype(np.float32)
        check_input_grad(GlobalAvgPool2D(), x0, seed)

    def test_flatten_roundtrip_grad(self, rng):
        x0 = rng.standard_normal((2, 3, 3, 2)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        Flatten()(x).backward(np.ones((2, 18), dtype=np.float32))
        np.testing.assert_array_equal(x.grad, np.ones_like(x0))

    def test_residual_add(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        add(a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_residual_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestModuleProtocol:
    def test_parameter_discovery_nested(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Conv2D(2, 3, 3, rng=rng), LeakyReLU(), Linear(4, 2, rng=rng))
        names = len(seq.parameters())
        assert names == 4  # conv w+b, linear w+b

    def test_train_eval_propagates(self):
        seq = Sequential(BatchNorm2D(2), Sequential(BatchNorm2D(3)))
        seq.eval()
        assert not seq.modules[0].training
        assert not seq.modules[1].modules[0].training

    @pytest.mark.parametrize("arch", sorted(MODEL_BUILDERS))
    def test_walk_keeps_the_parameter_order(self, arch):
        """``parameters()`` over :meth:`Module.walk` returns the objects the
        per-attribute recursion returned, in its order, for every shipped
        model, and the walk reaches each conv once."""

        def recursive(module):
            out = []
            for value in vars(module).values():
                for item in value if isinstance(value, (list, tuple)) else (value,):
                    if isinstance(item, Parameter):
                        out.append(item)
                    elif isinstance(item, Module):
                        out.extend(recursive(item))
            return out

        extra = {"image": 8} if arch.startswith("vgg") else {}
        m = MODEL_BUILDERS[arch](classes=4, width_mult=0.0625, seed=0, **extra)
        want = recursive(m)
        got = m.parameters()
        assert len(got) == len(want) > 0
        assert all(a is b for a, b in zip(got, want, strict=True))
        convs = [c for c in m.walk() if isinstance(c, Conv2D)]
        assert len({id(c) for c in convs}) == len(convs)
        assert [c.weight for c in convs] == [p for p in want if p.name == "conv.weight"]

    def test_weight_bytes(self):
        lin = Linear(10, 5, rng=np.random.default_rng(0))
        assert lin.weight_bytes() == 4 * (10 * 5 + 5)


# ---------------------------------------------------------------------------
# bit identity against the original layer formulas


def _leaky_oracle(xd, slope):
    return np.where(xd > 0, xd, slope * xd).astype(xd.dtype)


def _maxpool_windows(xd, k):
    n, h, w, c = xd.shape
    return (
        xd.reshape(n, h // k, k, w // k, k, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, h // k, w // k, k * k, c)
    )


def _maxpool_oracle(xd, k):
    """Gather of each window's first argmax."""
    windows = _maxpool_windows(xd, k)
    arg = windows.argmax(axis=3)
    return np.take_along_axis(windows, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]


def _batchnorm_oracle(xd, mean, var, eps, gamma, beta):
    """Returns ``(y, xhat, inv_std)`` of the original out-of-place forward."""
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mean) * inv_std
    y = xhat * gamma + beta
    return y.astype(xd.dtype), xhat, inv_std


def _oracle_leaky_forward(self, x):
    return make_op(_leaky_oracle(x.data, self.negative_slope), (x,), None)


def _oracle_maxpool_forward(self, x):
    return make_op(_maxpool_oracle(x.data, self.kernel), (x,), None)


def _oracle_batchnorm_forward(self, x):
    assert not self.training
    y, _, _ = _batchnorm_oracle(
        x.data, self.running_mean, self.running_var, self.eps,
        self.gamma.data, self.beta.data,
    )
    return make_op(y, (x,), None)


def _oracle_conv_forward(self, x):
    xd, wd, p = x.data, self.weight.data, self.padding
    if self.engine_at(xd.shape[2]) == "winograd":
        y = runtime.convolve(xd, wd, ph=p, pw=p)
    else:
        y = conv2d_gemm(xd, wd, ph=p, pw=p, stride=self.stride)
    if self.bias is not None:
        y = y + self.bias.data
    return make_op(y, (x,), None)


def _salted(rng, shape, dtype):
    """Seeded normals with ±0, ±inf, NaN and subnormals scattered in."""
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny], dtype)
    x = rng.standard_normal(shape).astype(dtype)
    flat = x.reshape(-1)
    at = rng.choice(flat.size, size=4 * specials.size, replace=False)
    flat[at] = np.resize(specials, at.size)
    return x


def _assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.dtype(f"u{want.dtype.itemsize}")
    np.testing.assert_array_equal(got.view(uint), want.view(uint))


class TestBitIdentity:
    """Each forward equals its original formula bit for bit on salted input;
    the one documented MaxPool difference is pinned explicitly."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.01, 0.1, 1.0])
    def test_leaky_relu_forward_and_grad(self, rng, slope, dtype):
        x0 = _salted(rng, (2, 6, 7, 5), dtype)
        x = Tensor(x0, requires_grad=True)
        y = LeakyReLU(slope)(x)
        _assert_bits_equal(y.data, _leaky_oracle(x0, slope))
        g = _salted(rng, y.shape, dtype)
        y.backward(g)
        _assert_bits_equal(x.grad, np.where(x0 > 0, g, slope * g).astype(dtype))

    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5, float("nan")])
    def test_leaky_relu_rejects_slopes_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="negative_slope"):
            LeakyReLU(slope)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3])
    def test_maxpool_forward_and_grad(self, rng, k, dtype):
        x0 = _salted(rng, (2, 6 * k, 4 * k, 9), dtype)
        x = Tensor(x0, requires_grad=True)
        y = MaxPool2D(k)(x)
        want = _maxpool_oracle(x0, k)
        windows = _maxpool_windows(x0, k)
        zeros, neg = windows == 0, np.signbit(windows)
        zero_tie = (want == 0) & (zeros & neg).any(axis=3) & (zeros & ~neg).any(axis=3)
        has_nan = np.isnan(windows).any(axis=3)
        exact = ~(zero_tie | has_nan)
        assert exact.mean() > 0.9
        _assert_bits_equal(y.data[exact], want[exact])
        np.testing.assert_array_equal(y.data[zero_tie], 0)
        assert np.isnan(y.data[has_nan]).all() and np.isnan(want[has_nan]).all()

        g = _salted(rng, y.shape, dtype)
        y.backward(g)
        arg = windows.argmax(axis=3)
        gw = np.zeros_like(windows)
        np.put_along_axis(gw, arg[:, :, :, None, :], g[:, :, :, None, :], axis=3)
        n, h, w, c = x0.shape
        want_grad = gw.reshape(n, h // k, w // k, k, k, c).transpose(0, 1, 3, 2, 4, 5)
        _assert_bits_equal(x.grad, want_grad.reshape(x0.shape))

    def test_maxpool_signed_zero_tie_is_the_documented_difference(self):
        """A -0.0/+0.0 tie may pool to +0.0 where the first-argmax gather
        gave -0.0; the gradient still goes to the first maximal element."""
        x0 = np.array([-0.0, 0.0, -1.0, -2.0], dtype=np.float32).reshape(1, 2, 2, 1)
        x = Tensor(x0, requires_grad=True)
        y = MaxPool2D(2)(x)
        assert np.signbit(_maxpool_oracle(x0, 2)).all()
        assert y.data.shape == (1, 1, 1, 1) and y.data[0, 0, 0, 0] == 0
        y.backward(np.ones((1, 1, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(x.grad.ravel(), [1, 0, 0, 0])

    def test_maxpool_nan_window_pools_to_nan(self):
        nan = np.float32(np.nan)
        x0 = np.array([-1.0, -nan, 2.0, nan], dtype=np.float32).reshape(1, 2, 2, 1)
        y = MaxPool2D(2)(Tensor(x0))
        assert np.isnan(y.data).all() and np.isnan(_maxpool_oracle(x0, 2)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_forward_and_grads(self, rng, training, dtype):
        c = 6
        bn = BatchNorm2D(c)
        bn.gamma.data = rng.standard_normal(c).astype(np.float32)
        bn.beta.data = rng.standard_normal(c).astype(np.float32)
        bn.running_mean = rng.standard_normal(c).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
        bn.train(training)
        x0 = _salted(rng, (3, 5, 4, c), dtype)
        # Keep two channels finite so training statistics stay finite there.
        x0[..., :2] = rng.standard_normal((3, 5, 4, 2))
        x0[0, 0, 0, 0], x0[0, 0, 1, 1] = -0.0, np.finfo(dtype).smallest_subnormal
        if training:
            mean, var = x0.mean(axis=(0, 1, 2)), x0.var(axis=(0, 1, 2))
            m = bn.momentum
            want_rm = m * bn.running_mean + (1 - m) * mean
            want_rv = m * bn.running_var + (1 - m) * var
        else:
            mean, var = bn.running_mean, bn.running_var
        gamma, beta = bn.gamma.data.copy(), bn.beta.data.copy()
        want, xhat, inv_std = _batchnorm_oracle(x0, mean, var, bn.eps, gamma, beta)

        x = Tensor(x0, requires_grad=True)
        y = bn(x)
        _assert_bits_equal(y.data, want)
        if training:
            _assert_bits_equal(bn.running_mean, want_rm)
            _assert_bits_equal(bn.running_var, want_rv)

        g = rng.standard_normal(y.shape).astype(dtype)
        y.backward(g)
        if training:
            gx = g * gamma
            dx = (gx - gx.mean(axis=(0, 1, 2)) - xhat * (gx * xhat).mean(axis=(0, 1, 2))) * inv_std
        else:
            dx = g * gamma * inv_std
        _assert_bits_equal(x.grad, dx.astype(dtype))
        _assert_bits_equal(bn.gamma.grad, (g * xhat).sum(axis=(0, 1, 2)).astype(np.float32))
        _assert_bits_equal(bn.beta.grad, g.sum(axis=(0, 1, 2)).astype(np.float32))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("engine", ["winograd", "gemm"])
    def test_conv_bias_epilogue(self, rng, engine, stride):
        c = WINO_C
        conv = Conv2D(c, c, 3, stride=stride, engine=engine, rng=np.random.default_rng(1))
        winograd = (engine, stride) == ("winograd", 1)
        assert conv.engine_at(9) == ("winograd" if winograd else "gemm")
        bias = np.empty(c, np.float32)
        bias[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45]
        bias[7:] = rng.standard_normal(c - 7)
        conv.bias.data = bias
        x0 = rng.standard_normal((2, 8, 9, c)).astype(np.float32)
        x0[0, 0, :3, 0] = [0.0, -0.0, 1e-45]
        want = _oracle_conv_forward(conv, Tensor(x0)).data
        _assert_bits_equal(conv(Tensor(x0)).data, want)
        conv.eval()  # the second call runs on the operands the layer holds
        _assert_bits_equal(conv(Tensor(x0)).data, want)


@pytest.mark.parametrize(
    "arch,width_mult", [("vgg16", 0.25), ("resnet18", 0.125), ("resnet34", 0.125)]
)
def test_served_models_match_original_layer_formulas(rng, monkeypatch, arch, width_mult):
    """Registered models give the same bits as with the original forwards."""
    entry = ModelRegistry().register("net", arch=arch, width_mult=width_mult)
    rows = rng.standard_normal((3, 32, 32, 3)).astype(np.float32)
    rows[0, 0, :3, 0] = [0.0, -0.0, 1e-45]
    got = entry.infer_rows(rows)
    monkeypatch.setattr(LeakyReLU, "forward", _oracle_leaky_forward)
    monkeypatch.setattr(MaxPool2D, "forward", _oracle_maxpool_forward)
    monkeypatch.setattr(BatchNorm2D, "forward", _oracle_batchnorm_forward)
    monkeypatch.setattr(Conv2D, "forward", _oracle_conv_forward)
    _assert_bits_equal(got, entry.infer_rows(rows))
