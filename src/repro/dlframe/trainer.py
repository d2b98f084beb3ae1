"""Training loop, loss recording and the memory model for Experiment 3.

Reproduces the measurement protocol of §6.3.1: the loss value is recorded
every 10 steps; epoch wall-times give the speed column of Tables 4/5; the
memory model gives the "GPU memory" column; train/test accuracy complete
the rows.  A :class:`Trainer` with ``engine="winograd"`` convolutions is the
"Alpha" row (Winograd wherever the per-layer engine rule keeps it),
``engine="gemm"`` is the "PyTorch" row.

Memory model
------------
We cannot measure CUDA allocations, so memory is *accounted*: parameters +
optimizer state + gradients + every activation retained by the autograd tape
(found by walking the recorded graph), + the convolution workspace.  The
fused Winograd engine needs **no** workspace (§4.1); a GEMM conv's im2col
buffer is ``GM x GK`` floats (plus its row blocks' pad rows), and the
largest one is charged, which is the structural reason the Alpha columns of
Tables 4/5 are smaller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core import rowblocks
from ..obs import counter_add, gauge_set, span
from .autograd import Tensor, no_grad
from .data import SyntheticImages
from .layers import Conv2D, Module
from .losses import accuracy, softmax_cross_entropy
from .optim import Optimizer

__all__ = [
    "TrainRecord",
    "Trainer",
    "measure_training_memory",
    "conv_layer_geometries",
    "smooth_losses",
]


@dataclass
class TrainRecord:
    """Everything Tables 4/5 and Figures 11/12 report for one run."""

    losses: list[float] = field(default_factory=list)  # every `record_every` steps
    loss_steps: list[int] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    train_accuracy: float = 0.0
    test_accuracy: float = 0.0
    memory_bytes: int = 0
    weight_bytes: int = 0

    @property
    def seconds_per_epoch(self) -> float:
        return float(np.mean(self.epoch_seconds)) if self.epoch_seconds else 0.0


class Trainer:
    """Minimal supervised trainer over the dlframe substrate."""

    def __init__(self, model: Module, optimizer: Optimizer, *, record_every: int = 10) -> None:
        self.model = model
        self.optimizer = optimizer
        self.record_every = record_every
        self.record = TrainRecord(weight_bytes=model.weight_bytes())
        self._step = 0

    def train_step(self, x: np.ndarray, y_onehot: np.ndarray) -> float:
        """One optimisation step; returns the batch loss."""
        self.model.train()
        with span("train.step", step=self._step, batch=len(x)) as sp:
            with span("train.forward"):
                logits = self.model(Tensor(x))
                loss = softmax_cross_entropy(logits, y_onehot)
            self.optimizer.zero_grad()
            with span("train.backward"):
                loss.backward()
            with span("train.optimizer"):
                self.optimizer.step()
            value = float(loss.data)
            sp.set(loss=round(value, 6))
        counter_add("train.steps")
        counter_add("train.samples", len(x))
        if self._step % self.record_every == 0:
            self.record.losses.append(value)
            self.record.loss_steps.append(self._step)
        self._step += 1
        return value

    def fit(
        self,
        train: SyntheticImages,
        test: SyntheticImages | None = None,
        *,
        epochs: int,
        batch_size: int,
        seed: int = 0,
    ) -> TrainRecord:
        """Train for ``epochs``; fills and returns the :class:`TrainRecord`."""
        rng = np.random.default_rng(seed)
        for epoch in range(epochs):
            t0 = time.perf_counter()
            with span("train.epoch", epoch=epoch, batch_size=batch_size) as sp:
                for xb, yb in train.batches(batch_size, rng=rng):
                    self.train_step(xb, yb)
            elapsed = time.perf_counter() - t0
            sp.set(seconds=round(elapsed, 6))
            gauge_set("train.epoch_seconds", elapsed, epoch=epoch)
            self.record.epoch_seconds.append(elapsed)
        with span("train.evaluate", split="train"):
            self.record.train_accuracy = self.evaluate(train, batch_size=batch_size)
        if test is not None:
            with span("train.evaluate", split="test"):
                self.record.test_accuracy = self.evaluate(test, batch_size=batch_size)
        self.record.memory_bytes = measure_training_memory(
            self.model, train.x[: min(batch_size, len(train))].shape
        ) + _optimizer_state_bytes(self.optimizer)
        return self.record

    def evaluate(self, data: SyntheticImages, *, batch_size: int = 256) -> float:
        """Top-1 accuracy without recording gradients."""
        self.model.eval()
        correct = 0
        with no_grad():
            for xb, yb in data.batches(batch_size):
                logits = self.model(Tensor(xb))
                correct += int(round(accuracy(logits.data, yb) * len(xb)))
        self.model.train()
        return correct / len(data)


def _optimizer_state_bytes(opt: Optimizer) -> int:
    state = 0
    for name in ("_velocity", "_m", "_v"):
        bufs = getattr(opt, name, None)
        if bufs:
            state += sum(b.nbytes for b in bufs)
    return state


def measure_training_memory(model: Module, input_shape: tuple[int, ...]) -> int:
    """Accounted training-memory footprint for one forward/backward.

    Runs a probe forward pass, walks the autograd tape to sum every retained
    activation, and adds parameters + gradients + the engine's convolution
    workspace (zero for the fused Winograd engine, the largest im2col buffer
    for GEMM).
    """
    model.train()
    probe = Tensor(np.zeros(input_shape, dtype=np.float32), requires_grad=True)
    out = model(probe)

    seen: set[int] = set()
    activations = 0
    stack: list[Tensor] = [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        activations += t.data.nbytes
        stack.extend(t._parents)

    params = 4 * model.num_parameters()
    grads = params  # one gradient buffer per parameter
    workspace = _conv_workspace_bytes(model, input_shape)
    return activations + params + grads + workspace


def conv_layer_geometries(
    model: Module, input_shape: tuple[int, ...]
) -> list[tuple[Conv2D, int, int, int, int]]:
    """Every Conv2D in forward order with its activation geometry.

    Returns ``(layer, ih, iw, oh, ow)`` tuples, tracking the spatial extent
    through convolutions and pooling.  Residual shortcuts see the same input
    extent as their block's first convolution.
    """
    out: list[tuple[Conv2D, int, int, int, int]] = []

    def conv_out(item: Conv2D, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * item.padding - item.kernel) // item.stride + 1
        ow = (w + 2 * item.padding - item.kernel) // item.stride + 1
        return oh, ow

    def visit(m: Module, h: int, w: int) -> tuple[int, int]:
        # BasicBlock-style residuals: the shortcut branches from the input.
        block_in = (h, w)
        for name, value in vars(m).items():
            items = (
                value
                if isinstance(value, (list, tuple))
                else (value,)
                if isinstance(value, Module)
                else ()
            )
            for item in items:
                if isinstance(item, Conv2D):
                    src_h, src_w = (block_in if name.startswith("shortcut") else (h, w))
                    oh, ow = conv_out(item, src_h, src_w)
                    out.append((item, src_h, src_w, oh, ow))
                    if not name.startswith("shortcut"):
                        h, w = oh, ow
                elif isinstance(item, Module):
                    if type(item).__name__ == "MaxPool2D":
                        h //= item.kernel
                        w //= item.kernel
                    else:
                        h, w = visit(item, h, w)
        return h, w

    visit(model, input_shape[1], input_shape[2])
    return out


def _conv_workspace_bytes(model: Module, input_shape: tuple[int, ...]) -> int:
    """Largest im2col workspace among the runtime GEMMs a train step runs.

    Each conv's forward and unit-stride data grad count on their own
    signatures (:meth:`Conv2D.engine_at`): every one of the GEMM engine, a
    strided conv's forward, and those the engine rule sends to GEMM; fused
    Winograd convolutions contribute zero (§4.1).  The first conv reads the
    data batch and runs no data grad.  The workspace is the row-blocked
    GEMM operand of :func:`~repro.core.rowblocks.conv_matmul`, pad rows
    included: ``ceil(N / k)`` blocks of ``Mb`` rows by ``FH*FW*C``, where
    ``C`` is the conv's input channels (IC forward, OC for the data grad).
    """
    n = input_shape[0]
    worst = 0
    for i, (layer, ih, iw, oh, ow) in enumerate(conv_layer_geometries(model, input_shape)):
        gemms: list[tuple[int, int]] = []
        if layer.engine_at(iw) == "gemm":
            gemms.append((oh * ow, layer.ic))
        if i and layer.stride == 1 and layer.engine_at(iw, data_grad=True) == "gemm":
            gemms.append((ih * iw, layer.oc))
        for r, channels in gemms:
            rows = -(-n // rowblocks.block_images(r)) * rowblocks.block_rows(r)
            worst = max(worst, 4 * rows * layer.kernel * layer.kernel * channels)
    return worst


def smooth_losses(losses: list[float], window: int = 10) -> list[float]:
    """Non-overlapping sliding-window average, the Fig 11 plotting rule
    ("a sliding window of size 10 was used to average the loss values
    without overlap")."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return [
        float(np.mean(losses[i : i + window])) for i in range(0, len(losses), window)
    ]
