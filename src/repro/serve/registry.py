"""Model registry: named, frozen, pre-resolved models ready to serve.

Registration does everything expensive exactly once, before the first
request arrives:

* builds (or adopts) a :mod:`repro.dlframe` model and **freezes** it —
  serving must be a pure function of the weights, so BatchNorm uses
  running statistics and nothing mutates per request, and each Winograd
  ``Conv2D`` holds its §6.1.2 filter transforms itself instead of having
  the runtime find them again on every call;
* **warms** the model through the compiled-plan runtime: one forward pass
  resolves every unit-stride convolution to its cached
  :class:`~repro.runtime.executable.ConvExecutable` (plan + transform
  matrices + gather descriptors + einsum paths) and builds each frozen
  conv's filter transforms, so the first real request does no set-up work;
* measures the model's **per-row workspace** from the executables the
  warmup resolved (:meth:`~repro.runtime.executable.ConvExecutable.per_row_workspace_bytes`),
  which the dynamic batcher's workspace-budget flush trigger consumes;
* tracks a **weight version** per model, bumped by
  :meth:`ModelRegistry.load_weights`, which re-freezes the model: each
  conv transforms the new weights exactly once (on the reload's warmup or
  the first request after it), then reuses them.

Batch composition
-----------------
A forward runs exactly the rows it was given, with no whole-forward
padding, and its responses are still **bit-identical across any batch
composition**: every BLAS contraction on the served path (Winograd
accumulate, §5.5 GEMM tail, GEMM convs, the ``Linear`` head) runs in the
signature-fixed row blocks of :mod:`repro.core.rowblocks`, so no row's
arithmetic depends on how many requests shared its batch.  That is the
paper's BM-tile quantization applied per GEMM: the waste of a batch-1
dispatch is the pad rows of each GEMM's last block, and coalescing is what
fills them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .. import runtime
from ..dlframe.autograd import Tensor, no_grad
from ..dlframe.layers import Conv2D, Module
from ..dlframe.models.resnet import resnet18, resnet34
from ..dlframe.models.vgg import vgg16, vgg16x5, vgg16x7, vgg19
from ..dlframe.serialization import load_weights as _load_weights
from ..obs import counter_add, span
from .errors import BadRequest, ModelNotFound

__all__ = [
    "MODEL_BUILDERS",
    "ModelRegistry",
    "RegisteredModel",
    "padded_rows",
]

#: Heuristic per-row workspace when warmup resolved no *new* executables
#: (another model of the same geometry warmed the cache first): a deep CNN
#: holds a few dozen activation maps of roughly input size in flight.
_FALLBACK_WORKSPACE_FACTOR = 64

#: Named architectures :meth:`ModelRegistry.register` can build directly.
MODEL_BUILDERS: dict[str, Callable[..., Module]] = {
    "resnet18": resnet18,
    "resnet34": resnet34,
    "vgg16": vgg16,
    "vgg19": vgg19,
    "vgg16x5": vgg16x5,
    "vgg16x7": vgg16x7,
}


def padded_rows(k: int) -> int:
    """Rows a ``k``-row dispatch executes: ``k``, since forwards are not padded.

    Kept for callers that report whole-forward padding (it is now zero;
    the per-GEMM row-block padding is not counted here).
    """
    return k


def _iter_modules(module: Module) -> Iterator[Module]:
    """Depth-first walk over a module tree (the layers' containment idiom)."""
    yield module
    for value in vars(module).values():
        if isinstance(value, Module):
            yield from _iter_modules(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Module):
                    yield from _iter_modules(item)


@dataclass
class RegisteredModel:
    """One served model plus everything registration pre-resolved."""

    name: str
    model: Module
    input_shapes: tuple[tuple[int, int, int], ...]
    dtype: str = "float32"
    weight_version: int = 0
    winograd_convs: int = 0
    total_convs: int = 0
    executables_resolved: int = 0
    per_row_workspace_bytes: int = 0
    warmup_ms: float = 0.0
    #: Affine predicted batch cost (conv portion, from the machine cost
    #: model): one dispatch of ``k`` rows ≈ ``call + row * k``.
    predicted_row_ns: float = 0.0
    predicted_call_ns: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- request validation -------------------------------------------------

    def validate(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """Coerce a request payload to ``(rows, was_unbatched)``.

        Accepts one sample ``(H, W, C)`` or a micro-batch ``(n, H, W, C)``
        whose row shape matches one of the registered input shapes; the
        flag tells the response path whether to squeeze the batch axis
        back off.
        """
        arr = np.asarray(x, dtype=self.dtype)
        squeeze = arr.ndim == 3
        if squeeze:
            arr = arr[None]
        if arr.ndim != 4 or arr.shape[0] < 1:
            raise BadRequest(
                f"model {self.name!r} expects (H, W, C) or (n, H, W, C), got {arr.shape}"
            )
        if tuple(arr.shape[1:]) not in self.input_shapes:
            raise BadRequest(
                f"model {self.name!r} serves input shapes {list(self.input_shapes)}, "
                f"got {tuple(arr.shape[1:])}"
            )
        return arr, squeeze

    # -- execution ----------------------------------------------------------

    def infer_rows(self, rows: np.ndarray) -> np.ndarray:
        """Forward ``rows`` through the frozen model, batch-composition-stably.

        Every row's arithmetic is independent of how many real requests
        shared its batch (see the module docstring), so any dynamic batch
        composition returns the same bits as batch-1 serial execution
        (asserted in the test suite).
        """
        with span("serve.model", model=self.name, rows=rows.shape[0]), no_grad():
            return self.model(Tensor(rows)).data

    def predicted_batch_ns(self, rows: int) -> float:
        """Predicted wallclock ns of dispatching ``rows`` as one batch.

        The calibrated (or hand-set) machine cost model summed over the
        model's warmed conv executables.  The scheduler's deadline-pressure
        flush and the predicted-vs-actual batch cost stats both consume
        this.
        """
        return self.predicted_call_ns + self.predicted_row_ns * rows

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict[str, object]:
        with self._lock:
            weight_version = self.weight_version
        return {
            "name": self.name,
            "input_shapes": [list(s) for s in self.input_shapes],
            "dtype": self.dtype,
            "weight_version": weight_version,
            "winograd_convs": self.winograd_convs,
            "total_convs": self.total_convs,
            "executables_resolved": self.executables_resolved,
            "per_row_workspace_bytes": self.per_row_workspace_bytes,
            "warmup_ms": self.warmup_ms,
            "predicted_row_ns": self.predicted_row_ns,
            "predicted_call_ns": self.predicted_call_ns,
            "parameters": self.model.num_parameters(),
        }


class ModelRegistry:
    """Thread-safe name → :class:`RegisteredModel` store with warmup."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._models: dict[str, RegisteredModel] = {}

    # -- registration -------------------------------------------------------

    def register(
        self,
        name: str,
        model: Module | None = None,
        *,
        arch: str | None = None,
        image: int = 32,
        in_channels: int = 3,
        classes: int = 10,
        width_mult: float = 1.0,
        engine: str = "winograd",
        seed: int = 0,
        extra_images: tuple[int, ...] = (),
        warmup: bool = True,
    ) -> RegisteredModel:
        """Register ``model`` (or build ``arch``) under ``name`` and warm it.

        ``extra_images`` warms additional square input sizes (models whose
        head tolerates them, e.g. ResNet's global pooling) so each size's
        executables are resolved up front and admitted as request buckets.
        """
        if model is None:
            if arch is None:
                arch = name
            if arch not in MODEL_BUILDERS:
                raise ModelNotFound(
                    f"unknown architecture {arch!r}; known: {sorted(MODEL_BUILDERS)}"
                )
            model = MODEL_BUILDERS[arch](
                classes=classes,
                in_channels=in_channels,
                width_mult=width_mult,
                engine=engine,
                seed=seed,
                **({"image": image} if arch.startswith("vgg") else {}),
            )
        model.freeze()
        convs = [m for m in _iter_modules(model) if isinstance(m, Conv2D)]
        entry = RegisteredModel(
            name=name,
            model=model,
            input_shapes=tuple(
                (hw, hw, in_channels) for hw in (image, *extra_images)
            ),
            winograd_convs=sum(1 for c in convs if c.effective_engine == "winograd"),
            total_convs=len(convs),
        )
        with self._lock:
            if name in self._models:
                raise ValueError(f"model {name!r} is already registered")
            self._models[name] = entry
        if warmup:
            self._warm(entry)
        counter_add("serve.models.registered")
        return entry

    def _warm(self, entry: RegisteredModel) -> None:
        """Pre-resolve every conv through the runtime executable cache.

        One forward per registered input shape: the executable cache takes
        the plan/transform/einsum misses, each frozen conv builds its filter
        transforms (one ``runtime.filter_cache.misses`` per conv and input
        width), and the executables the pass resolved yield the measured
        per-row workspace the batcher budgets with.
        """
        before = {id(e) for e in runtime.global_cache().executables()}
        t0 = time.perf_counter()
        per_row_floor = 0
        for h, w, c in entry.input_shapes:
            zeros = np.zeros((1, h, w, c), dtype=entry.dtype)
            entry.infer_rows(zeros)
            per_row_floor = max(per_row_floor, zeros[0].nbytes)
        entry.warmup_ms = (time.perf_counter() - t0) * 1e3
        fresh = [
            e for e in runtime.global_cache().executables() if id(e) not in before
        ]
        entry.executables_resolved = len(fresh)
        entry.per_row_workspace_bytes = max(
            (e.per_row_workspace_bytes() for e in fresh),
            # Warm cache (a same-geometry model registered first): fall back
            # to a documented input-scaled heuristic.
            default=per_row_floor * _FALLBACK_WORKSPACE_FACTOR,
        )
        if fresh:
            # Conv fit terms are affine in the batch, so summing each
            # executable's (constant, per-row) coefficients prices any
            # batch size in O(1) — the cost the batcher's deadline-pressure
            # flush consults per wakeup.
            p1 = sum(e.predicted_ns(1) for e in fresh)
            p2 = sum(e.predicted_ns(2) for e in fresh)
            entry.predicted_row_ns = max(0.0, p2 - p1)
            entry.predicted_call_ns = max(0.0, p1 - (p2 - p1))
        else:
            # Warm cache: measure instead — two post-warmup forwards give
            # the same affine decomposition from wallclock.
            h, w, c = entry.input_shapes[0]
            t1 = time.perf_counter_ns()
            entry.infer_rows(np.zeros((1, h, w, c), dtype=entry.dtype))
            t2 = time.perf_counter_ns()
            entry.infer_rows(np.zeros((2, h, w, c), dtype=entry.dtype))
            t3 = time.perf_counter_ns()
            per_row = max(0.0, float((t3 - t2) - (t2 - t1)))
            entry.predicted_row_ns = per_row
            entry.predicted_call_ns = max(0.0, float(t2 - t1) - per_row)
        counter_add("serve.warmup.executables", entry.executables_resolved)

    # -- weight lifecycle ---------------------------------------------------

    def load_weights(
        self, name: str, path: object, *, warmup: bool = True
    ) -> RegisteredModel:
        """Swap ``name``'s weights in place from a ``save_weights`` file.

        Bumps the model's weight version and re-freezes the model, which
        drops every conv's frozen filter transforms: each conv then builds
        them from the new weights exactly once (one filter-cache miss) and
        reuses them thereafter.  ``warmup=True`` pays those misses here
        rather than on the first post-reload request.
        """
        entry = self.get(name)
        with entry._lock:
            _load_weights(entry.model, path)  # type: ignore[arg-type]
            entry.model.freeze()
            entry.weight_version += 1
        counter_add("serve.weights.reloaded", model=name)
        if warmup:
            for h, w, c in entry.input_shapes:
                entry.infer_rows(np.zeros((1, h, w, c), dtype=entry.dtype))
        return entry

    # -- lookup -------------------------------------------------------------

    def get(self, name: str) -> RegisteredModel:
        with self._lock:
            entry = self._models.get(name)
        if entry is None:
            raise ModelNotFound(f"model {name!r} is not registered")
        return entry

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def describe(self) -> list[dict[str, object]]:
        return [self.get(name).describe() for name in self.names()]
