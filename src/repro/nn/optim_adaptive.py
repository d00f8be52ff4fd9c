"""Adaptive optimizers (Adam / AdamW).

The paper trains with plain SGD, but a reusable DL library needs the
adaptive family for downstream workloads; they also serve the
optimizer-sensitivity ablations. Explicit ``step``/``zero_grad`` on
parameter objects.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .parameter import Parameter

__all__ = ["Adam", "AdamW"]


class Adam:
    """Adam (Kingma & Ba 2015) with bias-corrected moment estimates."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _update(self, i: int, p: Parameter, grad: np.ndarray) -> None:
        m, v = self._m[i], self._v[i]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        m_hat = m / (1 - self.beta1**self.t)
        v_hat = v / (1 - self.beta2**self.t)
        p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self) -> None:
        """Apply one Adam update from the stored gradients."""
        self.t += 1
        for i, p in enumerate(self.params):
            self._update(i, p, p.grad)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter 2019)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(params, lr=lr, betas=betas, eps=eps)
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.weight_decay = weight_decay

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            # decoupled decay: applied directly to the weights, not the
            # gradient, so it does not enter the moment estimates
            if self.weight_decay > 0:
                p.data -= self.lr * self.weight_decay * p.data
            self._update(i, p, p.grad)
