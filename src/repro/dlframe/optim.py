"""Optimizers: SGDM and Adam, the two the paper trains with (§6.3.1).

Both assign each :class:`~repro.dlframe.layers.Parameter` a new array
(``p.data = p.data - ...``, the floats an in-place update computes), so
layers see the change; their state is keyed by parameter order.  Learning rate defaults to the
paper's 0.001.
"""

from __future__ import annotations

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGDM", "Adam"]


class Optimizer:
    """Base optimizer: holds the parameter list, provides zero_grad."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SGDM(Optimizer):
    """SGD with momentum: ``v = mu*v + g;  p = p - lr * v``."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3, momentum: float = 0.9) -> None:
        super().__init__(parameters, lr)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data = p.data - self.lr * v


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        b1, b2 = betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1 - b1**self._t
        bc2 = 1 - b2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
