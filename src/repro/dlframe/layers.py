"""Neural-network layers over the autograd substrate.

The convolution layer is the experiment.  Every convolution a
:class:`Conv2D` runs, its forward and its unit-stride data grad (the
paper's backward deconvolution, §5.1), is one :func:`repro.runtime.convolve`
call on executables and filter operands the layer holds, with the
algorithm chosen by one rule: ``engine="gemm"`` runs the runtime's
row-blocked im2col GEMM everywhere (bit-identical to
:func:`repro.baselines.gemm.conv2d_gemm`) and stands in for the PyTorch
baseline; ``engine="winograd"`` asks :func:`repro.runtime.conv_engine` of
each conv's own signature, which picks ``Gamma_alpha`` or, with few
channels or few output columns where the transforms are not amortised,
the GEMM.  Non-unit-stride convolutions run the GEMM forward and its
adjoint, the col2im data grad, under either engine, matching the paper
("other algorithms handle the non-unit-stride cases", §5.7) — which is
also why the paper sees smaller training speedups on ResNet (§6.3.2).
The filter gradient is an im2col GEMM everywhere.

All activations are NHWC.
"""

from __future__ import annotations

import weakref
from typing import Iterator

import numpy as np

from ..core import rowblocks
from ..core.gradients import backward_filter_for_input_grad, conv2d_filter_grad, conv2d_input_grad
from ..nhwc.tensor import conv_output_size
from ..obs import span
from ..runtime import ConvExecutable, ConvSignature, FilterBundle, conv_engine, get_executable
from ..runtime import convolve as runtime_convolve
from .autograd import Tensor, make_op
from .initializers import kaiming_uniform

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Conv2D",
    "Linear",
    "BatchNorm2D",
    "LeakyReLU",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "add",
]


_TENSOR_DATA = Tensor.__dict__["data"]


class Parameter(Tensor):
    """A trainable tensor (always requires grad).

    Its array is a read-only view, so a weight changes only when a new array
    is assigned to ``data`` (optimizer steps, ``load_state_dict``).
    """

    def __init__(self, data, name: str = "") -> None:
        super().__init__(np.asarray(data), requires_grad=True, name=name)

    @property  # type: ignore[override]
    def data(self) -> np.ndarray:
        return _TENSOR_DATA.__get__(self)

    @data.setter
    def data(self, value) -> None:
        arr = np.asarray(value).view()
        arr.flags.writeable = False
        _TENSOR_DATA.__set__(self, arr)


class Module:
    """Base class: parameter discovery, train/eval mode, call protocol."""

    def __init__(self) -> None:
        self.training = True

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def children(self) -> Iterator["Module"]:
        """Direct submodules in attribute order, a list or tuple attribute's
        modules in their order (the layers' containment idiom)."""
        for value in vars(self).values():
            for item in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(item, Module):
                    yield item

    def walk(self) -> Iterator["Module"]:
        """This module, then every module under it, depth first."""
        yield self
        for child in self.children():
            yield from child.walk()

    def parameters(self) -> list[Parameter]:
        """Each module's own parameters, modules in :meth:`walk` order."""
        return [v for m in self.walk() for v in vars(m).values() if isinstance(v, Parameter)]

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def weight_bytes(self) -> int:
        """Size of a saved weight file (FP32), cf. the paper's last column."""
        return 4 * self.num_parameters()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for m in self.modules:
            x = m(x)
        return x

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


class Conv2D(Module):
    """2D convolution, NHWC, with a selectable execution engine.

    Parameters
    ----------
    ic, oc:
        Input / output channels.
    kernel:
        Filter edge (square filters ``kernel x kernel``).
    stride:
        Spatial stride; only ``stride == 1`` can use the Winograd engine.
    padding:
        Spatial padding; defaults to ``kernel // 2`` ("same" for odd kernels).
    engine:
        ``"winograd"`` (Im2col-Winograd for the forward and the unit-stride
        data grad wherever :func:`~repro.runtime.conv_engine` picks it on
        that conv's signature, the runtime's GEMM otherwise, see
        :meth:`engine_at`) or ``"gemm"`` (the baseline, everywhere).  The
        filter gradient is GEMM in both, as in the paper.
    rng:
        Generator for kaiming-uniform init.
    """

    def __init__(
        self,
        ic: int,
        oc: int,
        kernel: int,
        *,
        stride: int = 1,
        padding: int | None = None,
        engine: str = "winograd",
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if engine not in ("winograd", "gemm"):
            raise ValueError(f"engine must be 'winograd' or 'gemm', got {engine!r}")
        self.ic, self.oc, self.kernel = ic, oc, kernel
        self.stride = stride
        self.padding = kernel // 2 if padding is None else padding
        self.engine = engine
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(
            kaiming_uniform((oc, kernel, kernel, ic), fan_in=ic * kernel * kernel, rng=rng),
            name="conv.weight",
        )
        self.bias = Parameter(np.zeros(oc, dtype=np.float32), name="conv.bias") if bias else None
        # Held operands per input size: the forward's, and the unit-stride
        # data grad's (keyed by the gradient's dtype too); see _held.
        self._forward_ops: dict[tuple, _Operands] = {}
        self._grad_ops: dict[tuple, _Operands] = {}
        # Engine run at each input width served so far.
        self._served: dict[int, str] = {}

    def engine_at(self, iw: int, *, data_grad: bool = False) -> str:
        """The engine a forward on an input ``iw`` columns wide runs, or,
        with ``data_grad``, the engine of that forward's data grad.

        ``"gemm"`` for the GEMM engine and for strided layers (§5.7);
        otherwise the per-signature rule :func:`~repro.runtime.conv_engine`
        on the conv's own signature: the forward's (IC to OC channels,
        ``OW`` output columns) or the data grad's, which convolves ``dY``
        with the rotated filters (OC to IC channels, ``iw`` output columns).
        The rule never looks at the batch (nor at the height: Winograd tiles
        the width only).
        """
        if self.engine == "gemm" or self.stride != 1:
            return "gemm"
        k = self.kernel
        if data_grad:
            return conv_engine(self.oc, self.ic, k, k, iw)
        return conv_engine(self.ic, self.oc, k, k, conv_output_size(iw, k, self.padding))

    @property
    def effective_engine(self) -> str:
        """The engine the layer's forward ran at the input widths it has served.

        ``"winograd"`` or ``"gemm"``, or ``"mixed"`` when those widths ran
        both.  Before its first forward a layer reports ``"gemm"`` when no
        input can run Winograd (GEMM engine or stride != 1) and the
        configured engine otherwise; :meth:`engine_at` answers for a given
        width without running it.
        """
        served = set(self._served.values())
        if len(served) == 1:
            return served.pop()
        if served:
            return "mixed"
        return self.engine if self.stride == 1 else "gemm"

    def forward(self, x: Tensor) -> Tensor:
        w = self.weight
        ph = pw = self.padding
        stride = self.stride
        # Weights read once: operands and backward pair with this array.
        xd, wd = x.data, w.data
        engine = self.engine_at(xd.shape[2])
        self._served[xd.shape[2]] = engine
        with span(
            "layer.conv2d", engine=engine, ic=self.ic, oc=self.oc,
            kernel=self.kernel, stride=stride,
        ):
            exe, bundle = _held(
                self._forward_ops, xd.shape[1:3], wd, xd, wd,
                ph=ph, pw=pw, algorithm=engine, stride=stride,
            )
            y = runtime_convolve(
                xd, wd, ph=ph, pw=pw, stride=stride, algorithm=engine,
                bundle=bundle, executable=exe,
            )
        if self.bias is not None:
            y += self.bias.data  # y is this call's fresh conv output

        in_shape = xd.shape
        fh = fw = self.kernel
        # A network's first conv reads the data batch, which needs no
        # gradient: skip its data grad (autograd skips a None parent grad).
        input_grad = x.requires_grad

        def backward_fn(g):
            dx = self._input_grad(g, wd, in_shape) if input_grad else None
            dw = conv2d_filter_grad(xd, g, fh=fh, fw=fw, ph=ph, pw=pw, stride=stride)
            db = g.sum(axis=(0, 1, 2)) if self.bias is not None else None
            return dx, dw, db

        parents = (x, w) + ((self.bias,) if self.bias is not None else ())
        return make_op(y, parents, backward_fn)

    def _input_grad(self, g, wd, in_shape) -> np.ndarray:
        """The data grad: at unit stride on held operands, with the engine
        :meth:`engine_at` picks for it; strided, the col2im GEMM."""
        ph = pw = self.padding
        exe = bundle = None
        engine = self.engine_at(in_shape[2], data_grad=True)
        if self.stride == 1:
            fk = self.kernel - 1
            exe, bundle = _held(
                self._grad_ops, (*in_shape[1:3], g.dtype), wd, g,
                backward_filter_for_input_grad(wd),
                ph=fk - ph, pw=fk - pw, algorithm=engine, dtype=g.dtype,
            )
        return conv2d_input_grad(
            g, wd, in_shape, ph=ph, pw=pw, stride=self.stride, engine=engine,
            executable=exe, bundle=bundle,
        )


#: A layer-held entry: a weak reference to the weight array the operands
#: were built from, then the executable and its filter operands.
_Operands = tuple[weakref.ref, ConvExecutable, FilterBundle]


def _held(
    table: dict[tuple, _Operands],
    key: tuple,
    wd: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    **sig,
) -> tuple[ConvExecutable, FilterBundle]:
    """``table[key]``'s executable and bundle if built from ``wd``, else new ones.

    New ones are the executable of ``conv(x, w)``'s signature (``sig`` as
    :meth:`ConvSignature.for_operands` takes it) and its operands of ``w``,
    the filters as that conv reads them (``wd`` itself, or a view of it).
    Weights change only by replacement (:class:`Parameter`), so an entry is
    current exactly while ``wd`` is its (weakly held) source array.
    """
    entry = table.get(key)
    if entry is None or entry[0]() is not wd:
        exe = get_executable(ConvSignature.for_operands(x, w, **sig))
        entry = table[key] = (weakref.ref(wd), exe, exe.build_bundle(w))
    return entry[1], entry[2]


class Linear(Module):
    """Fully connected layer: ``y = x W + b`` with kaiming-uniform init."""

    def __init__(
        self, in_features: int, out_features: int, *, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(
            kaiming_uniform((in_features, out_features), fan_in=in_features, rng=rng),
            name="linear.weight",
        )
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32), name="linear.bias")

    def forward(self, x: Tensor) -> Tensor:
        xd, wd, bd = x.data, self.weight.data, self.bias.data
        # One row per sample, contracted in fixed row blocks so a sample's
        # bits do not depend on the batch it shares.
        y = rowblocks.matmul(xd, wd, 1) + bd

        def backward_fn(g):
            return g @ wd.T, xd.T @ g, g.sum(axis=0)

        return make_op(y, (x, self.weight, self.bias), backward_fn)


class BatchNorm2D(Module):
    """Batch normalisation over (N, H, W) per channel (NHWC), as the paper
    adds to VGG to expedite convergence (§6.3.1)."""

    def __init__(self, channels: int, *, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(channels, dtype=np.float32), name="bn.gamma")
        self.beta = Parameter(np.zeros(channels, dtype=np.float32), name="bn.beta")
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.momentum = momentum
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        xd = x.data
        if self.training:
            mean = xd.mean(axis=(0, 1, 2))
            var = xd.var(axis=(0, 1, 2))
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        # The same float ops as ``(xd - mean) * inv_std * gamma + beta``, run
        # in place on the two arrays this call allocates.
        xhat = xd - mean
        xhat *= inv_std
        y = xhat * self.gamma.data
        y += self.beta.data
        training = self.training
        gamma = self.gamma.data

        def backward_fn(g):
            dgamma = (g * xhat).sum(axis=(0, 1, 2))
            dbeta = g.sum(axis=(0, 1, 2))
            if training:
                gx = g * gamma
                dx = (
                    gx - gx.mean(axis=(0, 1, 2)) - xhat * (gx * xhat).mean(axis=(0, 1, 2))
                ) * inv_std
            else:
                dx = g * gamma * inv_std
            return dx.astype(xd.dtype), dgamma, dbeta

        return make_op(y.astype(xd.dtype, copy=False), (x, self.gamma, self.beta), backward_fn)


class LeakyReLU(Module):
    """LeakyReLU activation (§6.3.1: 'Activation functions are LeakyRelu').

    The forward is ``max(x, slope * x)``: for ``0 < slope <= 1`` that is the
    select ``x if x > 0 else slope * x`` bit for bit, including ±0, ±inf,
    NaN and subnormals, without a branch per element.  Slopes outside that
    range break the identity (at 0, ``0 * inf`` would turn +inf into NaN),
    so they are rejected.
    """

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if not 0 < negative_slope <= 1:
            raise ValueError(f"negative_slope must be in (0, 1], got {negative_slope}")
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        xd = x.data
        slope = self.negative_slope
        y = np.maximum(xd, slope * xd)

        def backward_fn(g):
            return (np.where(xd > 0, g, slope * g),)

        return make_op(y, (x,), backward_fn)


class MaxPool2D(Module):
    """Non-overlapping max pooling (kernel == stride), the VGG downsampler.

    The paper contrasts VGG's max-pooling downsampling (Winograd-friendly)
    with ResNet's strided convolutions (§6.3.2).

    The forward is a max reduction over a reshaped view of the input; only
    the backward gathers windows and finds the argmax, and it routes each
    window's gradient to its first maximal element.  The forward equals
    that element's value except where the window's maximum is a tie
    between -0.0 and +0.0, which may come back as either zero, and where
    the window holds NaNs, whose payload may come from a different NaN.
    """

    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        if kernel < 1:
            raise ValueError(f"kernel must be >= 1, got {kernel}")
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        k = self.kernel
        xd = x.data
        n, h, w, c = xd.shape
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h}, {w}) not divisible by pool kernel {k}")
        y = xd.reshape(n, h // k, k, w // k, k, c).max(axis=(2, 4))

        def backward_fn(g):
            windows = (
                xd.reshape(n, h // k, k, w // k, k, c)
                .transpose(0, 1, 3, 2, 4, 5)
                .reshape(n, h // k, w // k, k * k, c)
            )
            arg = windows.argmax(axis=3)
            gw = np.zeros_like(windows)
            np.put_along_axis(gw, arg[:, :, :, None, :], g[:, :, :, None, :], axis=3)
            gx = gw.reshape(n, h // k, w // k, k, k, c).transpose(0, 1, 3, 2, 4, 5)
            return (gx.reshape(n, h, w, c),)

        return make_op(y, (x,), backward_fn)


class GlobalAvgPool2D(Module):
    """Mean over the spatial axes: (N, H, W, C) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        n, h, w, c = x.data.shape
        y = x.data.mean(axis=(1, 2))

        def backward_fn(g):
            return (np.broadcast_to(g[:, None, None, :] / (h * w), (n, h, w, c)).astype(x.dtype),)

        return make_op(y, (x,), backward_fn)


class Flatten(Module):
    """(N, H, W, C) -> (N, H*W*C)."""

    def forward(self, x: Tensor) -> Tensor:
        n = x.data.shape[0]
        shape = x.data.shape
        y = x.data.reshape(n, -1)
        return make_op(y, (x,), lambda g: (g.reshape(shape),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Residual addition (shapes must match exactly)."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"residual add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return make_op(a.data + b.data, (a, b), lambda g: (g, g))
