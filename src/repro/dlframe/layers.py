"""Neural-network layers over the autograd substrate.

The convolution layer is the experiment: ``engine="winograd"`` routes
unit-stride convolutions through the compiled-plan runtime
(:func:`repro.runtime.convolve` — cached executables + full-depth
contractions, bit-identical to :func:`repro.core.fused.conv2d_im2col_winograd`)
forward, and the backward deconvolution of :mod:`repro.core.gradients`
(data grad), exactly as Dragon-Alpha dispatches (§5.7).  The forward's
algorithm is picked per layer by one fixed rule of its signature
(:func:`repro.runtime.conv_engine`): ``Gamma_alpha``, or, with few channels
or few output columns where the transforms are not amortised, a runtime
executable of the row-blocked im2col GEMM.  ``engine="gemm"`` uses the
im2col GEMM everywhere and stands in for the PyTorch baseline.
Non-unit-stride convolutions always take the GEMM path, matching the paper
("other algorithms handle the non-unit-stride cases") — which is also why
the paper sees smaller training speedups on ResNet (§6.3.2).

All activations are NHWC.
"""

from __future__ import annotations

import numpy as np

from ..baselines.gemm import conv2d_gemm
from ..core import rowblocks
from ..core.gradients import conv2d_filter_grad, conv2d_input_grad
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


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(np.asarray(data), requires_grad=True, name=name)


class Module:
    """Base class: parameter discovery, train/eval mode, call protocol."""

    def __init__(self) -> None:
        self.training = True

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for value in vars(self).values():
            if isinstance(value, Parameter):
                out.append(value)
            elif isinstance(value, Module):
                out.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        out.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        out.append(item)
        return out

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def freeze(self) -> "Module":
        """Put the whole tree in frozen-inference mode: eval + per-layer
        pre-computation where a layer supports it (Conv2D pre-transforms its
        filters, §6.1.2).  Any subsequent ``train(True)`` unfreezes."""
        self.eval()
        for value in vars(self).values():
            items = (
                value
                if isinstance(value, (list, tuple))
                else (value,)
                if isinstance(value, Module)
                else ()
            )
            for item in items:
                if isinstance(item, Module):
                    item.freeze()
        return self

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
        ``"winograd"`` (Im2col-Winograd forward where
        :func:`~repro.runtime.conv_engine` picks it for the input width, the
        runtime's GEMM otherwise, see :meth:`engine_at`; backward
        deconvolution) or ``"gemm"`` (the baseline, everywhere).  The filter
        gradient is GEMM in both, as in the paper.
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
        self._frozen = False
        # Frozen filter operands per input width (the plan depends on OW),
        # and the executable of each input size a frozen forward has run.
        self._bundles: dict[int, FilterBundle] = {}
        self._executables: dict[tuple[int, int], ConvExecutable] = {}
        # Engine run at each input width served so far.
        self._served: dict[int, str] = {}

    def engine_at(self, iw: int) -> str:
        """The engine a forward on an input ``iw`` columns wide runs.

        ``"gemm"`` for the GEMM engine and for strided layers (§5.7);
        otherwise the per-signature rule :func:`~repro.runtime.conv_engine`,
        which never looks at the batch (nor at the height: Winograd tiles
        the width only).
        """
        if self.engine == "gemm" or self.stride != 1:
            return "gemm"
        k = self.kernel
        return conv_engine(self.ic, self.oc, k, k, conv_output_size(iw, k, self.padding))

    @property
    def effective_engine(self) -> str:
        """The engine the layer runs at the input widths it has served.

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

    def _frozen_forward(self, xd: np.ndarray, wd: np.ndarray, algorithm: str) -> np.ndarray:
        ph = pw = self.padding
        # Captured once: a concurrent re-freeze swaps in new dicts, so
        # operands built here from the old weights never land in them.
        bundles, executables = self._bundles, self._executables
        ih, iw = xd.shape[1:3]
        bundle = bundles.get(iw)
        if self.stride != 1:
            # The baseline GEMM (§5.7) on filters folded once.
            if bundle is None:
                bundle = bundles[iw] = FilterBundle(u={}, gemm_operand=rowblocks.fold_filters(wd))
            k = self.kernel
            return rowblocks.conv_matmul(xd, bundle.gemm_operand, k, k, ph, pw, stride=self.stride)
        exe = executables.get((ih, iw))
        if exe is None:
            sig = ConvSignature.for_operands(xd, wd, ph=ph, pw=pw, algorithm=algorithm)
            exe = executables[(ih, iw)] = get_executable(sig)
        if bundle is None:
            bundle = bundles[iw] = exe.build_bundle(wd)
        return runtime_convolve(
            xd, wd, ph=ph, pw=pw, bundle=bundle, algorithm=algorithm, executable=exe
        )

    def freeze(self) -> "Conv2D":
        """Enter frozen-inference mode (§6.1.2's pre-transposition, here:
        pre-transformed filters).  The filter operands (Winograd ``U``, or
        the folded GEMM matrix where the rule picks GEMM or the layer is
        strided) are computed once per input width at first use, from the
        weights at that time, and the executable once per input size;
        freezing again or any ``train()`` discards them (weights are
        assumed fixed while frozen).  An ``engine="gemm"`` layer stays the
        unfrozen baseline."""
        self.eval()
        self._frozen = True
        self._bundles, self._executables = {}, {}
        return self

    def train(self, mode: bool = True) -> "Conv2D":
        if mode:
            self._frozen = False
            self._bundles, self._executables = {}, {}
        return super().train(mode)

    def forward(self, x: Tensor) -> Tensor:
        w = self.weight
        ph = pw = self.padding
        stride = self.stride
        xd, wd = x.data, w.data
        engine = self.engine_at(xd.shape[2])
        self._served[xd.shape[2]] = engine
        frozen = getattr(self, "_frozen", False)
        with span(
            "layer.conv2d", engine=engine, ic=self.ic, oc=self.oc,
            kernel=self.kernel, stride=stride, frozen=frozen,
        ):
            if frozen and self.engine != "gemm":
                # Frozen: the layer holds its filter operands per input
                # width and its executable per input size, and hands both
                # to the runtime, so a call does no filter work and no
                # signature resolution.
                y = self._frozen_forward(xd, wd, engine)
            elif self.engine == "gemm" or stride != 1:
                y = conv2d_gemm(xd, wd, ph=ph, pw=pw, stride=stride)
            else:
                # Compiled-plan runtime, Winograd or (the rule's pick) GEMM:
                # the (shape, dtype, algorithm) signature hits the
                # executable cache after the first step, and the filter
                # cache, matching weights by an exact bit compare against
                # its copy, rebuilds the operands once per optimizer update
                # (weights mutate in place).
                y = runtime_convolve(xd, wd, ph=ph, pw=pw, algorithm=engine)
        if self.bias is not None:
            y += self.bias.data  # y is this call's fresh conv output

        in_shape = xd.shape
        fh = fw = self.kernel
        # The rule was fitted on forwards; the data grad keeps the
        # configured engine (Winograd deconvolution for unit stride).
        grad_engine = self.engine
        # A network's first conv reads the data batch, which needs no
        # gradient: skip its data grad (autograd skips a None parent grad).
        # No shipped model has a strided first conv, so only the unit-stride
        # path skips.
        input_grad = x.requires_grad

        def backward_fn(g):
            if stride == 1:
                dx = (
                    conv2d_input_grad(g, wd, in_shape, ph=ph, pw=pw, engine=grad_engine)
                    if input_grad
                    else None
                )
                dw = conv2d_filter_grad(xd, g, fh=fh, fw=fw, ph=ph, pw=pw)
            else:
                dx, dw = _strided_conv_grads(xd, wd, g, ph, pw, stride)
            db = g.sum(axis=(0, 1, 2)) if self.bias is not None else None
            return dx, dw, db

        parents = (x, w) + ((self.bias,) if self.bias is not None else ())
        return make_op(y, parents, backward_fn)


def _strided_conv_grads(xd, wd, g, ph, pw, stride):
    """Gradients of a strided convolution via gradient dilation.

    Inserting ``stride - 1`` zeros between gradient pixels turns the strided
    backward pass into a unit-stride one: ``dX`` is the full correlation of
    the dilated gradient with the 180-degree-rotated filter (reusing
    :func:`conv2d_input_grad` against a virtual input of exactly the size
    the dilated map reaches, then embedding into the true input extent), and
    ``dW`` correlates the padded input with the dilated map directly.
    """
    n, oh, ow, oc = g.shape
    _, ih, iw, ic = xd.shape
    fh, fw = wd.shape[1], wd.shape[2]
    gh, gw = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    gd = np.zeros((n, gh, gw, oc), dtype=g.dtype)
    gd[:, ::stride, ::stride, :] = g

    # dX: virtual unpadded input of size (gh + fh - 1); rows/cols of the real
    # (padded) input beyond that receive zero gradient.
    full = conv2d_input_grad(gd, wd, (n, gh + fh - 1, gw + fw - 1, ic), ph=0, pw=0, engine="gemm")
    dxp = np.zeros((n, ih + 2 * ph, iw + 2 * pw, ic), dtype=xd.dtype)
    dxp[:, : full.shape[1], : full.shape[2], :] = full
    dx = dxp[:, ph : ph + ih, pw : pw + iw, :]

    # dW: correlate the padded input with the dilated gradient.
    xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    dw = np.empty((oc, fh, fw, ic), dtype=xd.dtype)
    for i in range(fh):
        for j in range(fw):
            patch = xp[:, i : i + gh, j : j + gw, :]
            dw[:, i, j, :] = np.einsum("nhwc,nhwo->oc", patch, gd, optimize=True)
    return dx, dw


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
