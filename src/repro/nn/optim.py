"""Optimizers and learning-rate schedules.

The paper trains with plain SGD (Table 1, η = 0.1), and so do both
simulation engines: learning rate and weight decay only.
:class:`SGD`'s momentum is for the layer library (a standalone model
trained on its own); the engines never set it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .parameter import Parameter

__all__ = ["SGD", "BatchedSGD", "ConstantLR", "StepLR", "CosineLR"]


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    Updates are applied in place on the parameter buffers: no per-step
    allocation beyond the (lazily created) momentum buffers.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray] | None = None

    def step(self) -> None:
        """Apply one update using the gradients currently stored on the
        parameters."""
        if self.momentum > 0.0 and self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.params]
        for i, p in enumerate(self.params):
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            if self.momentum > 0.0:
                vel = self._velocity[i]
                vel *= self.momentum
                vel += grad
                p.data -= self.lr * vel
            else:
                p.data -= self.lr * grad

    def zero_grad(self) -> None:
        """Zero all parameter gradients in place."""
        for p in self.params:
            p.zero_grad()


class BatchedSGD:
    """SGD over the stacked parameter block (the engines' local step).

    ``model`` is a bound :class:`repro.nn.batched.BatchedModel`: its
    ``block`` is the ``(k, dim)`` parameter rows and its ``grads`` the
    gradient plane of the same shape and layout, both C-contiguous, so
    one update is two passes over flat memory whatever the model's
    layer structure — ``grads *= lr; block -= grads``. Per element that
    is the serial :class:`SGD`'s ``p -= lr * g``: one rounding for the
    product, one for the difference, in the same order (``lr * g`` and
    ``g * lr`` are the same IEEE product), so row ``i`` receives exactly
    the bits the serial optimizer would give node ``i``. Weight decay
    adds ``grads += weight_decay * block`` first — again the serial
    ``g + weight_decay * p``, product rounded, then sum rounded — with
    the product staged in a scratch plane the optimizer keeps and grows
    to the largest block it has seen. The step consumes the gradient
    plane: after it, ``grads`` holds the applied update, not gradients.

    This is the engines' plain SGD: there is no momentum, so no row
    carries optimizer state from one step or round to the next.
    """

    def __init__(self, model, lr: float, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.model = model
        self.lr = lr
        self.weight_decay = weight_decay
        self._decay = np.empty(0)

    def step(self) -> None:
        """Apply one in-place update to every node row at once."""
        block, grads = self.model.block, self.model.grads
        if self.weight_decay > 0.0:
            if self._decay.size < block.size:
                self._decay = np.empty(block.size)
            decay = self._decay[: block.size].reshape(block.shape)
            np.multiply(block, self.weight_decay, out=decay)
            grads += decay
        grads *= self.lr
        block -= grads


class ConstantLR:
    """Constant learning rate (paper default)."""

    def __init__(self, lr: float) -> None:
        self.lr = lr

    def __call__(self, step: int) -> float:
        return self.lr


class StepLR:
    """Multiply the rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.lr = lr
        self.step_size = step_size
        self.gamma = gamma

    def __call__(self, step: int) -> float:
        return self.lr * self.gamma ** (step // self.step_size)


class CosineLR:
    """Cosine annealing from ``lr`` down to ``min_lr`` over ``total`` steps."""

    def __init__(self, lr: float, total: int, min_lr: float = 0.0) -> None:
        if total <= 0:
            raise ValueError("total must be positive")
        self.lr = lr
        self.total = total
        self.min_lr = min_lr

    def __call__(self, step: int) -> float:
        frac = min(step, self.total) / self.total
        return self.min_lr + 0.5 * (self.lr - self.min_lr) * (1 + np.cos(np.pi * frac))
