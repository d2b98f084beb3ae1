"""Conv signatures: the cache key of the compiled-plan runtime.

A :class:`ConvSignature` pins everything the compile step depends on —
geometry ``(IH, IW, IC, OC, FH, FW)``, padding, stride, the algorithm (the
``Gamma_alpha`` kernel selection ``(alpha, variant)``, or the im2col GEMM
that :func:`conv_engine` picks for small layers) and the computation
dtype — and nothing it does not: the batch size ``N`` only scales the
gathered volume, so the same executable serves every batch of a shape
(exactly how cuDNN keys its heuristic/plan caches on the conv descriptor,
not the batch pointer).

Validation lives here, and only here: the functional API's legacy path
(:func:`repro.core.fused.conv2d_im2col_winograd` with ``legacy=True``) and
the runtime entry point (:func:`repro.runtime.convolve`) both resolve a
signature, so they raise identical errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.kernels import MAX_WIDTH, default_alpha_for_width, get_kernel
from ..nhwc.tensor import conv_output_size

__all__ = ["ConvSignature", "conv_engine"]

#: The GEMM region of :func:`conv_engine`: a unit-stride 3x3 conv runs GEMM
#: when ``OW <= width`` and ``min(IC, OC) <= channels`` for one of these
#: ``(width, channels)`` corners.  Fitted on the 3x3 grid of DESIGN.md
#: ("Per-layer algorithm rule", ``OW`` 2-32): GEMM only where it was faster
#: at batch 1 and within 5% at batch 8.
GEMM_REGION: tuple[tuple[float, float], ...] = (
    (2, math.inf),
    (4, 128),
    (16, 64),
    (32, 32),
)


def conv_engine(ic: int, oc: int, fh: int, fw: int, ow: int) -> str:
    """``"gemm"`` or ``"winograd"``: the faster algorithm for a unit-stride conv.

    A pure function of the layer's signature, never of the batch, the host
    or any option, so every process picks the same engine and a layer's
    bits do not depend on how many images share its batch.  Winograd pays
    its input and output transforms per tile and reads filters ``alpha/r``
    times the raw size; with few channels the contraction does not amortise
    the transforms, and with few output columns most of the work is the
    tiles' boundary (the paper's §5.6 roofline, and Figs 8-9 where cuDNN's
    GEMM wins).

    The region covers only what was measured: 3x3 filters and ``OW <= 32``.
    Other filters and wider maps stay on Winograd, and filter widths no
    ``Gamma_alpha`` kernel covers run GEMM.  ``OH`` is not an input:
    ``Gamma_alpha`` tiles along the width only, so the plan, and with it
    the rule, depends on ``OW`` (the grid was square).
    """
    if not 2 <= fw <= MAX_WIDTH:
        return "gemm"
    if (fh, fw) != (3, 3):
        return "winograd"
    channels = min(ic, oc)
    if any(ow <= width and channels <= most for width, most in GEMM_REGION):
        return "gemm"
    return "winograd"


@dataclass(frozen=True)
class ConvSignature:
    """Batch-agnostic identity of one compiled convolution.

    ``dtype`` is the numpy dtype *name* (hashable); ``alpha``/``variant``
    are fully resolved (no ``None`` defaults survive construction via
    :meth:`resolve`).  ``algorithm`` is ``"winograd"`` (the paper's
    ``Gamma_alpha``, the default) or ``"gemm"`` (one im2col GEMM over every
    output column; ``alpha`` is then 0 and ``variant`` ``"base"``).
    ``stride`` above 1 is a GEMM signature's only: the ``Gamma_alpha``
    kernels are unit-stride, and the paper leaves strided convs to other
    algorithms (§5.7).
    """

    ih: int
    iw: int
    ic: int
    oc: int
    fh: int
    fw: int
    ph: int
    pw: int
    alpha: int
    variant: str
    dtype: str
    algorithm: str = "winograd"
    stride: int = 1

    @property
    def oh(self) -> int:
        return conv_output_size(self.ih, self.fh, self.ph, self.stride)

    @property
    def ow(self) -> int:
        return conv_output_size(self.iw, self.fw, self.pw, self.stride)

    @property
    def label(self) -> str:
        """Compact human-readable key of the signature."""
        algo = "gemm" if self.algorithm == "gemm" else f"a{self.alpha}.{self.variant}"
        step = f".s{self.stride}" if self.stride != 1 else ""
        return f"{self.ih}x{self.iw}x{self.ic}-{self.oc}.f{self.fh}x{self.fw}{step}.{algo}"

    @classmethod
    def resolve(
        cls,
        *,
        ih: int,
        iw: int,
        ic: int,
        oc: int,
        fh: int,
        fw: int,
        ph: int | None = None,
        pw: int | None = None,
        alpha: int | None = None,
        variant: str = "base",
        dtype: np.dtype | type | str = np.float32,
        algorithm: str = "winograd",
        stride: int = 1,
    ) -> "ConvSignature":
        """Apply the functional API's defaults and validate the envelope.

        The legacy ``conv2d_im2col_winograd`` path validates through here
        too, so swapping the engine cannot change the error surface.
        """
        if ph is None:
            ph = fh // 2
        if pw is None:
            pw = fw // 2
        if not (0 <= pw < fw and 0 <= ph < fh) and (fh > 1 or fw > 1):
            raise ValueError(f"padding (ph={ph}, pw={pw}) must satisfy 0 <= p < filter extent")
        dt = np.dtype(dtype)
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if algorithm == "gemm":
            sig = cls(
                ih=ih, iw=iw, ic=ic, oc=oc, fh=fh, fw=fw, ph=ph, pw=pw,
                alpha=0, variant="base", dtype=dt.name, algorithm="gemm", stride=stride,
            )
        elif algorithm == "winograd":
            if stride != 1:
                raise ValueError(f"Winograd convs are unit-stride; stride {stride} needs GEMM")
            if alpha is None:
                alpha = default_alpha_for_width(fw)
            if dt == np.float16 and alpha == 16:
                raise ValueError(
                    "alpha=16 is not representable in float16 (transform-matrix "
                    "magnitude disparity, see §6.2.2); use alpha<=8 or float32"
                )
            get_kernel(alpha, fw, variant)  # raises for unregistered combinations
            if variant == "c64" and (ic % 64 or oc % 64):
                # §5.6: c64 blocks 64 channels per cache block.
                raise ValueError(
                    f"variant 'c64' needs IC and OC that are multiples of 64, "
                    f"got IC={ic}, OC={oc}"
                )
            sig = cls(
                ih=ih, iw=iw, ic=ic, oc=oc, fh=fh, fw=fw,
                ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dt.name,
            )
        else:
            raise ValueError(f"algorithm must be 'winograd' or 'gemm', got {algorithm!r}")
        if sig.oh < 1 or sig.ow < 1:
            raise ValueError(f"empty output {sig.oh}x{sig.ow}")
        return sig

    @classmethod
    def for_operands(
        cls,
        x: np.ndarray,
        w: np.ndarray,
        *,
        ph: int | None = None,
        pw: int | None = None,
        alpha: int | None = None,
        variant: str = "base",
        dtype: np.dtype | type | str = np.float32,
        algorithm: str = "winograd",
        stride: int = 1,
    ) -> "ConvSignature":
        """Signature of ``conv(x, w)`` — the operand-shape front door."""
        if x.ndim != 4 or w.ndim != 4:
            raise ValueError(f"expected 4D x and w, got ndim {x.ndim} and {w.ndim}")
        if x.shape[3] != w.shape[3]:
            raise ValueError(
                f"channel mismatch: input IC={x.shape[3]}, filter IC={w.shape[3]}"
            )
        oc, fh, fw, ic = w.shape
        _, ih, iw, _ = x.shape
        return cls.resolve(
            ih=ih, iw=iw, ic=ic, oc=oc, fh=fh, fw=fw,
            ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype,
            algorithm=algorithm, stride=stride,
        )
