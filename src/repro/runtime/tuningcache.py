"""Compatibility stub: the measured tuning table no longer exists.

Its only importer is ``perfbench/probe.py``, which wraps :func:`lookup` to
time it as part of ``runtime.dispatch``.  Nothing under ``src/`` imports
this module: :func:`repro.runtime.convolve` dispatches every signature to
its cached executable directly.
"""

from __future__ import annotations

from typing import Any

__all__ = ["lookup"]


def lookup(sig: Any, rows: int) -> None:
    """Always ``None``: there is no tuned dispatch to look up."""
    return None
