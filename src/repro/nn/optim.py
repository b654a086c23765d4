"""The Adam optimiser every NEC model trains with, at a constant learning rate."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimiser: holds parameters and zeroes their gradients."""

    def __init__(self, parameters: Sequence[Tensor]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("Optimizer received no parameters")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m = self._m.get(id(parameter))
            v = self._v.get(id(parameter))
            if m is None:
                m = np.zeros_like(parameter.data)
                v = np.zeros_like(parameter.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[id(parameter)] = m
            self._v[id(parameter)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
