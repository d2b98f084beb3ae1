"""Model registry: named, eval-mode, pre-resolved models ready to serve.

Registration does everything expensive exactly once, before the first
request arrives:

* builds (or adopts) a :mod:`repro.dlframe` model and puts it in **eval**
  mode — serving must be a pure function of the weights, so BatchNorm
  uses running statistics and nothing mutates per request.  Each
  ``Conv2D`` holds its filter operands itself (the §6.1.2 transforms of a
  Winograd conv, the folded matrix of a GEMM conv), built once per weight
  array instead of on every call;
* **warms** the model: one forward pass per served input size resolves
  every convolution to its cached
  :class:`~repro.runtime.executable.ConvExecutable` (plan + transform
  matrices + gather descriptors, or the GEMM plan the per-layer rule picks
  and every strided conv runs) and builds each conv's filter
  operands, so
  the first real request does no set-up work, and each conv then reports
  the engine the rule ran it on (``winograd_convs`` counts those that ran
  Winograd);
* seeds the model's **batch quote** with the warm-up's wallclock.  Every
  batch the scheduler executes then records its own measured time, and
  :meth:`RegisteredModel.predicted_batch_ns` quotes from those records;
* tracks a **weight version** per model, bumped by
  :meth:`ModelRegistry.load_weights`, which replaces every parameter's
  array: each conv transforms the new weights exactly once (on the
  reload's warmup or the first request after it), then reuses them.

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
from typing import Callable

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
    warmup_ms: float = 0.0
    #: Latest measured wallclock ns of one served batch, by row count.
    _batch_ns: dict[int, float] = field(default_factory=dict, repr=False)
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
        """Forward ``rows`` through the eval-mode model, batch-composition-stably.

        Every row's arithmetic is independent of how many real requests
        shared its batch (see the module docstring), so any dynamic batch
        composition returns the same bits as batch-1 serial execution
        (asserted in the test suite).
        """
        with span("serve.model", model=self.name, rows=rows.shape[0]), no_grad():
            return self.model(Tensor(rows)).data

    def record_batch_ns(self, rows: int, ns: float) -> None:
        """Record the measured wallclock of one ``rows``-row batch."""
        with self._lock:
            self._batch_ns[rows] = ns

    def predicted_batch_ns(self, rows: int) -> float:
        """Quoted wallclock ns of dispatching ``rows`` as one batch.

        The latest measured batch of ``rows`` rows.  A row count that has
        not run yet is quoted the largest measurement at any smaller row
        count, since a batch never gets cheaper by adding rows.  Before any
        batch has run, row count 1 holds the registration warm-up; with no
        measurement at or below ``rows`` the quote is 0.0.  The scheduler's
        deadline-pressure flush and its quote-vs-measured batch cost stats
        both consume this.
        """
        with self._lock:
            exact = self._batch_ns.get(rows)
            if exact is not None:
                return exact
            return max((ns for k, ns in self._batch_ns.items() if k < rows), default=0.0)

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
            "warmup_ms": self.warmup_ms,
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
        model.eval()
        convs = [m for m in model.walk() if isinstance(m, Conv2D)]
        entry = RegisteredModel(
            name=name,
            model=model,
            input_shapes=tuple(
                (hw, hw, in_channels) for hw in (image, *extra_images)
            ),
            total_convs=len(convs),
        )
        with self._lock:
            if name in self._models:
                raise ValueError(f"model {name!r} is already registered")
            self._models[name] = entry
        if warmup:
            self._warm(entry)
        # After the warm-up, each conv reports the engine it ran at every
        # served size; without one, the engine it is configured with.
        entry.winograd_convs = sum(1 for c in convs if c.effective_engine != "gemm")
        counter_add("serve.models.registered")
        return entry

    def _warm(self, entry: RegisteredModel) -> None:
        """Pre-resolve every conv through the runtime executable cache.

        One forward per registered input shape: the executable cache takes
        the plan and transform misses, each conv builds its filter
        operands (one ``runtime.filter_cache.misses`` per conv and input
        size), and ``executables_resolved`` counts the
        executables the pass added to the cache.  The pass's wallclock
        seeds the one-row batch quote: it is a cold forward, so it
        overstates a warm one until the first one-row batch replaces it.
        """
        before = {id(e) for e in runtime.global_cache().executables()}
        t0 = time.perf_counter()
        for h, w, c in entry.input_shapes:
            entry.infer_rows(np.zeros((1, h, w, c), dtype=entry.dtype))
        entry.warmup_ms = (time.perf_counter() - t0) * 1e3
        entry.record_batch_ns(1, entry.warmup_ms * 1e6)
        entry.executables_resolved = sum(
            1 for e in runtime.global_cache().executables() if id(e) not in before
        )
        counter_add("serve.warmup.executables", entry.executables_resolved)

    # -- weight lifecycle ---------------------------------------------------

    def load_weights(
        self, name: str, path: object, *, warmup: bool = True
    ) -> RegisteredModel:
        """Swap ``name``'s weights from a ``save_weights`` file.

        A bad file raises and changes nothing (every key and shape is
        checked first).  Otherwise bumps the weight version; each conv then
        builds its operands from the new arrays exactly once (one
        filter-cache miss).  ``warmup=True`` pays those misses here rather
        than on the first post-reload request.
        """
        entry = self.get(name)
        with entry._lock:
            _load_weights(entry.model, path)  # type: ignore[arg-type]
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
