"""The engines' optimizer: plain SGD over the stacked parameter block.

The paper trains with plain SGD (Table 1, η = 0.1), and so do both
simulation engines: learning rate and weight decay only. The serial
``SGD`` that :class:`BatchedSGD` reproduces row by row, and the
learning-rate schedules, live with the test suite's serial oracle
(``tests/oracle_nn.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchedSGD"]


class BatchedSGD:
    """SGD over the stacked parameter block (the engines' local step).

    ``model`` is a bound :class:`repro.nn.batched.BatchedModel`: its
    ``block`` is the ``(k, dim)`` parameter rows and its ``grads`` the
    gradient plane of the same shape and layout, both C-contiguous, so
    one update is two passes over flat memory whatever the model's
    layer structure — ``grads *= lr; block -= grads``. Per element that
    is the serial ``SGD``'s ``p -= lr * g``: one rounding for the
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
