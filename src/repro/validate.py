"""``python -m repro.validate`` — installation self-check.

Runs a fast battery (a few seconds) proving the install works end to end:

1. symbolic Toom-Cook identity for the headline schemes,
2. fused convolution vs FP64 direct on a random problem (with boundary),
3. backward pass: Winograd vs GEMM, and the strided and 1x1 data grads
   against the FP64 adjoint identity,
4. ND (1D/3D) and deconvolution paths,
5. a 3-step training run on the dlframe substrate,
6. a performance-model sanity sweep.

Exit code 0 on success; the first failure raises with context.
"""

from __future__ import annotations

import sys
import time

import numpy as np

__all__ = ["run_validation", "main"]


def _check(name: str, fn) -> float:
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    print(f"  [ok] {name} ({dt * 1e3:.0f} ms)")
    return dt


def run_validation(verbose: bool = True) -> None:
    """Run all checks; raises on the first failure."""
    rng = np.random.default_rng(1234)

    def transforms():
        from repro.core import verify_exact

        for n, r in [(6, 3), (4, 5), (10, 7), (8, 9)]:
            verify_exact(n, r)

    def fused_forward():
        from repro.baselines import conv2d_direct
        from repro.core import conv2d_im2col_winograd

        x = rng.standard_normal((2, 12, 13, 5)).astype(np.float32)
        w = rng.standard_normal((4, 5, 5, 5)).astype(np.float32)
        got = conv2d_im2col_winograd(x, w)
        want = conv2d_direct(x, w, ph=2, pw=2, dtype=np.float64)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-4, f"fused conv off by {rel:.2e}"

    def backward():
        from repro.baselines import conv2d_direct
        from repro.core import conv2d_input_grad
        from repro.dlframe import Conv2D, Tensor

        w = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        dy = rng.standard_normal((2, 9, 9, 4)).astype(np.float32)
        a = conv2d_input_grad(dy, w, (2, 9, 9, 5), ph=1, pw=1, engine="winograd")
        b = conv2d_input_grad(dy, w, (2, 9, 9, 5), ph=1, pw=1, engine="gemm")
        assert np.abs(a - b).max() < 1e-3, "backward engines disagree"
        # The strided (col2im) and rule-picked GEMM data grads, against the
        # FP64 adjoint identity <conv(x, w), g> = <x, dx>.
        for kernel, stride in ((3, 2), (1, 1)):
            conv = Conv2D(5, 4, kernel, stride=stride, rng=rng)
            x = Tensor(rng.standard_normal((2, 9, 9, 5)).astype(np.float32), requires_grad=True)
            y = conv(x)
            g = rng.standard_normal(y.shape).astype(np.float32)
            y.backward(g)
            p = conv.padding
            yd = conv2d_direct(x.data, conv.weight.data, ph=p, pw=p, stride=stride,
                               dtype=np.float64)
            xdx = x.data.astype(np.float64) * x.grad
            rel = abs((yd * g).sum() - xdx.sum()) / np.abs(xdx).sum()
            assert rel < 1e-5, f"{kernel}x{kernel} stride-{stride} data grad off by {rel:.2e}"

    def ndim_and_deconv():
        from repro.core import (
            conv1d_im2col_winograd,
            conv3d_im2col_winograd,
            deconv2d_im2col_winograd,
        )

        y1 = conv1d_im2col_winograd(
            rng.standard_normal((2, 20, 3)).astype(np.float32),
            rng.standard_normal((2, 3, 3)).astype(np.float32),
        )
        assert y1.shape == (2, 20, 2)
        y3 = conv3d_im2col_winograd(
            rng.standard_normal((1, 4, 5, 12, 2)).astype(np.float32),
            rng.standard_normal((2, 3, 3, 3, 2)).astype(np.float32),
        )
        assert y3.shape == (1, 4, 5, 12, 2)
        yd = deconv2d_im2col_winograd(
            rng.standard_normal((1, 6, 6, 4)).astype(np.float32),
            rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        )
        assert yd.shape == (1, 6, 6, 3)

    def training():
        from repro.dlframe import Adam, Trainer, synthetic_cifar10
        from repro.dlframe.models import vgg16

        train, _ = synthetic_cifar10(train=48, test=8, image=8, classes=4, noise=0.2)
        m = vgg16(classes=4, image=8, width_mult=0.0625, engine="winograd", seed=1)
        t = Trainer(m, Adam(m.parameters(), lr=2e-3), record_every=1)
        first = t.train_step(train.x[:24], train.y[:24])
        for _ in range(5):
            last = t.train_step(train.x[:24], train.y[:24])
        assert last < first, "training loss did not decrease"

    def perfmodel():
        from repro.gpusim import RTX3060TI, estimate_conv, estimate_cudnn_gemm
        from repro.nhwc import ConvShape

        s = ConvShape.from_ofm(32, 48, 48, 128, r=3)
        ours = estimate_conv(s, RTX3060TI)
        base = estimate_cudnn_gemm(s, RTX3060TI)
        assert 0.5 < ours.gflops / base.gflops < 3.0, "model out of envelope"

    checks = [
        ("Toom-Cook identity (symbolic)", transforms),
        ("fused conv vs FP64 direct", fused_forward),
        ("backward data grads: deconvolution, strided, 1x1", backward),
        ("1D / 3D / transposed conv", ndim_and_deconv),
        ("dlframe training step", training),
        ("GPU performance model", perfmodel),
    ]
    print("repro self-check:")
    total = 0.0
    for name, fn in checks:
        total += _check(name, fn)
    print(f"all {len(checks)} checks passed in {total:.1f} s")


def main() -> int:
    try:
        run_validation()
    except AssertionError as exc:
        print(f"VALIDATION FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
