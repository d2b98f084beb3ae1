"""Compiled-plan runtime: cached conv executables (compile once, run many).

The interpreted path (:mod:`repro.core.fused`) re-derives the boundary
plan, transform matrices and filter transforms on every call.  This package compiles a conv *signature* — geometry, padding,
``Gamma_alpha`` kernel selection and dtype — into a reusable
:class:`ConvExecutable` held in a process-wide LRU (the analogue of cuDNN's
descriptor-keyed heuristic/plan cache), and executes the Winograd stage
with one gather + input transform per workspace chunk and one GEMM per
``alpha`` state over the full ``(fh, ic)`` depth — bit-identical to the
interpreted path.

Entry points
------------
:func:`convolve`
    Drop-in, bit-identical twin of ``conv2d_im2col_winograd``.
:func:`configure`
    Process-wide chunk workspace budget.
:func:`global_cache`
    The process-wide executable LRU (``resize`` sets its capacity).
:func:`cache_stats` / :func:`clear_cache`
    Plan-cache observability (also exported as ``runtime.cache.*`` obs
    counters).
"""

from .cache import (
    CacheStats,
    ExecutableCache,
    cache_stats,
    clear_cache,
    get_executable,
    global_cache,
)
from .engine import (
    configure,
    convolve,
    force_legacy,
    legacy_forced,
)
from .executable import ConvExecutable, FilterBundle, build_filter_bundle
from .signature import ConvSignature, conv_engine

__all__ = [
    "CacheStats",
    "ConvExecutable",
    "ConvSignature",
    "ExecutableCache",
    "FilterBundle",
    "build_filter_bundle",
    "cache_stats",
    "clear_cache",
    "configure",
    "conv_engine",
    "convolve",
    "force_legacy",
    "get_executable",
    "global_cache",
    "legacy_forced",
]
