"""Kernel registry: the ``Gamma_alpha(n, r)`` kernels the paper implements.

Section 4.1: suitable state counts are ``alpha in {4, 8, 16}`` (SMEM budget
forces ``alpha <= 24``, preferably a power of two), giving the kernel families

* ``Gamma_4(n, r)``   with r in {2, 3}          (n = 5 - r)
* ``Gamma_8(n, r)``   with r in {2, ..., 7}     (n = 9 - r)
* ``Gamma_16(n, r)``  with r in {2, ..., 15}    (n = 17 - r)

The shipped implementations cover filter widths 2-9 (the abstract), while the
flexibility argument of §4.2 extends Gamma_16 to width 15; the registry
exposes both, and :func:`supported_filter_widths` reports the shipped range.

Variant availability follows §5.4/§5.6: ``ruse`` exists where the paper built
it — Gamma_4(n,4)-style direct reuse plus the profitable merged-thread cases
Gamma_8^ruse(4,5), (3,6), (2,7) and Gamma_16^ruse(9,8), (8,9) — and ``c64``
for every Gamma_16.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .variants import Variant, VariantSpec, ruse_profitable, variant_spec

__all__ = [
    "KernelId",
    "registered_kernels",
    "kernels_for_width",
    "get_kernel",
    "supported_filter_widths",
    "default_alpha_for_width",
]

#: Alphas in the registry.
ALPHAS = (4, 8, 16)

#: Filter widths with shipped kernels (abstract: "support 2-9 filter widths").
SHIPPED_WIDTHS = range(2, 10)

#: Maximum width Gamma_16 can express (§4.2 flexibility argument).
MAX_WIDTH = 15


@dataclass(frozen=True)
class KernelId:
    """Identity of one registered kernel: ``Gamma_alpha^{variant}(n, r)``."""

    alpha: int
    n: int
    r: int
    variant: Variant = "base"

    @property
    def name(self) -> str:
        suffix = "" if self.variant == "base" else f"^{self.variant}"
        return f"Gamma{suffix}_{self.alpha}({self.n},{self.r})"

    @property
    def spec(self) -> VariantSpec:
        return variant_spec(self.alpha, self.n, self.r, self.variant)


def _alpha_supports(alpha: int, r: int) -> bool:
    n = alpha - r + 1
    return 2 <= r and n >= 2


def _ruse_available(alpha: int, r: int) -> bool:
    # Gamma_4(n,·) reuses overlap directly when a thread loads 2 tiles (§5.4
    # names Gamma_4(n,4); with alpha=4 the shipped pair is r in {2,3} where a
    # thread owns two tiles, so ruse is available for alpha=4 generally).
    if alpha == 4:
        return True
    return ruse_profitable(alpha, r)


@cache
def _registry(include_extended: bool) -> tuple[KernelId, ...]:
    """The registry entries, built once per ``include_extended``."""
    max_r = MAX_WIDTH if include_extended else max(SHIPPED_WIDTHS)
    out: list[KernelId] = []
    for alpha in ALPHAS:
        for r in range(2, max_r + 1):
            if not _alpha_supports(alpha, r):
                continue
            n = alpha - r + 1
            out.append(KernelId(alpha, n, r, "base"))
            if _ruse_available(alpha, r):
                out.append(KernelId(alpha, n, r, "ruse"))
            if alpha == 16:
                out.append(KernelId(alpha, n, r, "c64"))
    return tuple(out)


@cache
def _by_key() -> dict[tuple[int, int, Variant], KernelId]:
    """``(alpha, r, variant) -> KernelId`` over the extended registry."""
    return {(k.alpha, k.r, k.variant): k for k in _registry(True)}


def registered_kernels(include_extended: bool = False) -> list[KernelId]:
    """All registry entries, base variants first within each (alpha, r).

    Parameters
    ----------
    include_extended:
        Also return the Gamma_16 widths beyond the shipped 2-9 range
        (10..15), which §4.2 argues are expressible.
    """
    return list(_registry(include_extended))


def kernels_for_width(r: int, include_extended: bool = False) -> list[KernelId]:
    """Registered kernels whose filter width is ``r``, largest coverage first.

    Raises
    ------
    ValueError
        If no kernel supports width ``r``.
    """
    matches = [k for k in _registry(include_extended) if k.r == r]
    if not matches:
        limit = MAX_WIDTH if include_extended else max(SHIPPED_WIDTHS)
        raise ValueError(f"no Gamma kernel for filter width {r} (supported: 2-{limit})")
    return sorted(matches, key=lambda k: (-k.spec.coverage, k.alpha, k.variant))


def get_kernel(alpha: int, r: int, variant: Variant = "base") -> KernelId:
    """Look up ``Gamma_alpha^{variant}(., r)``; raises ValueError if absent."""
    k = _by_key().get((alpha, r, variant))
    if k is None:
        raise ValueError(f"Gamma_{alpha}^{variant} with r={r} is not registered")
    return k


def supported_filter_widths(include_extended: bool = False) -> list[int]:
    """Filter widths with at least one registered kernel."""
    return sorted({k.r for k in _registry(include_extended)})


def default_alpha_for_width(r: int) -> int:
    """The best-performing alpha for width ``r``.

    Experiment 1 benchmarks Gamma_8 for r in 2..7 and Gamma_16 for r in
    {7, 8, 9}; at r=7 Gamma_16(10,7) beats Gamma_8(2,7) throughout Figures
    8/9 (theoretical acceleration 4.375 vs 1.75), and Experiment 3's
    VGG16x7 is built to exercise Gamma_16(10,7) — so widths >= 7 default to
    alpha=16 and widths 2..6 to alpha=8, whose acceleration peaks near
    r = (alpha+1)/2 (§6.1.2).
    """
    if r in (2, 3, 4, 5, 6):
        return 8
    if 7 <= r <= MAX_WIDTH:
        return 16
    raise ValueError(f"filter width {r} out of supported range 2-{MAX_WIDTH}")
