"""The benchmark's workloads, one module each.

Every module exposes ``inputs(seed, quick)`` (the generated inputs, for the
seed-determinism check) and ``run(ctx) -> Outcome``.  Modules are imported
lazily so a run pays only for the workload it measures.
"""

from __future__ import annotations

import importlib
from types import ModuleType

MODULES = {
    "conv-kernels": "perfbench.workloads.conv_kernels",
    "vgg16-b8": "perfbench.workloads.vgg16_b8",
    "serve-open": "perfbench.workloads.serve_open",
    "http-closed": "perfbench.workloads.http_closed",
}


def load(name: str) -> ModuleType:
    """The module implementing workload ``name``."""
    if name not in MODULES:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(MODULES)}")
    return importlib.import_module(MODULES[name])
