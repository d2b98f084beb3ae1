"""Model-driven kernel autotuner — a cudnnFind analogue.

cuDNN exposes ``cudnnFindConvolutionForwardAlgorithm`` to benchmark
candidate kernels per problem; the paper's Table 2 implicitly does the same
("the fastest benchmark algorithm").  This module does it with the
performance model instead of wall clock: enumerate every admissible
``Gamma_alpha^{variant}`` for a problem, price each, and return the ranked
list.  Decisions are cached per (shape, device, kernel set).

Where the static planner (:func:`repro.core.planner.plan_convolution`)
applies the paper's written selection rules, the autotuner *searches* — the
two agree on most shapes, and the A3 ablation shapes are exactly where they
differ interestingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.kernels import KernelId, registered_kernels
from ..core.planner import plan_convolution
from ..nhwc.tensor import ConvShape
from .device import DeviceSpec
from .perfmodel import PerfEstimate, estimate_conv

__all__ = ["TunedChoice", "autotune_conv", "clear_autotune_cache"]


@dataclass(frozen=True)
class TunedChoice:
    """Outcome of autotuning one problem on one device."""

    best: KernelId
    estimate: PerfEstimate
    ranking: tuple[tuple[KernelId, float], ...]  # (kernel, modeled ms), fastest first

    @property
    def gflops(self) -> float:
        return self.estimate.gflops


_CACHE: dict[tuple[ConvShape, str, bool], TunedChoice] = {}


def clear_autotune_cache() -> None:
    _CACHE.clear()


def autotune_conv(
    shape: ConvShape,
    device: DeviceSpec,
    *,
    include_extended: bool = False,
) -> TunedChoice:
    """Pick the modeled-fastest Gamma kernel for ``shape`` on ``device``.

    Every registered kernel whose filter width matches is priced (each with
    its own §5.5 boundary segmentation as the leading kernel); results are
    cached.

    Raises
    ------
    ValueError
        If the problem cannot take the Winograd path at all (stride,
        unsupported width) — the caller should fall back to GEMM, exactly as
        the §5.7 dispatch does.
    """
    key = (shape, device.name, include_extended)
    if key in _CACHE:
        return _CACHE[key]
    probe = plan_convolution(shape)
    if probe.algorithm != "im2col-winograd":
        raise ValueError(f"no Winograd kernel admissible: {probe.reason}")

    candidates = [k for k in registered_kernels(include_extended) if k.r == shape.fw]
    if not candidates:
        raise ValueError(f"no registered kernel for r={shape.fw}; try include_extended=True")
    ranked: list[tuple[KernelId, float, PerfEstimate]] = []
    for kernel in candidates:
        plan = plan_convolution(shape, alpha=kernel.alpha, variant=kernel.variant)
        est = estimate_conv(shape, device, plan=plan)
        ranked.append((kernel, est.time_ms, est))
    ranked.sort(key=lambda t: t[1])
    best_kernel, _, best_est = ranked[0]
    choice = TunedChoice(
        best=best_kernel,
        estimate=best_est,
        ranking=tuple((k, ms) for k, ms, _ in ranked),
    )
    _CACHE[key] = choice
    return choice
