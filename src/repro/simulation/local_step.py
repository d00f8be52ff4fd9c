"""The local step both engines run — Algorithm 1's E plain-SGD steps on
each listed node's own mini-batches (Table 1) — and its evaluator.

The sync engine hands :class:`LocalTrainer` a round's masked nodes, the
async engine one activation or one disjoint event batch. The serial row
loop (:meth:`LocalTrainer.train_row`) is the reference the stacked
trainer is bit-identical to. Plain SGD carries no optimizer state, so
swapping each node's row in and out of one workspace model equals n
separate models at 1/n the memory.
"""

from __future__ import annotations

import numpy as np

from ..nn.batched import BatchedEvaluator, BatchedTrainer
from ..nn.losses import CrossEntropyLoss
from ..nn.module import Module
from ..nn.optim import SGD
from ..nn.serialization import parameter_vector, set_parameter_vector
from .node_bank import NodeBank

__all__ = ["LocalTrainer"]


class LocalTrainer:
    """Trains rows of an ``(n, dim)`` state matrix on their nodes' data.

    ``vectorized`` builds the stacked trainer and evaluator (raising
    :class:`~repro.nn.batched.UnsupportedLayerError` here, not rounds
    into a run); a serial trainer's ``evaluator`` is ``None``, the
    per-node loop. A serial engine never stacks a block of nodes."""

    def __init__(
        self,
        model: Module,
        nodes: NodeBank,
        local_steps: int,
        lr: float,
        weight_decay: float,
        vectorized: bool,
    ) -> None:
        self.model = model
        self.nodes = nodes
        self.local_steps = local_steps
        self.loss = CrossEntropyLoss()
        self.optimizer = SGD(model.parameters(), lr=lr, weight_decay=weight_decay)
        self.stacked = (
            BatchedTrainer(model, lr=lr, weight_decay=weight_decay)
            if vectorized
            else None
        )
        self.evaluator = BatchedEvaluator(model) if vectorized else None

    def train(self, state: np.ndarray, ids) -> np.ndarray:
        """E local steps on each row ``ids`` of ``state``, in place.

        Every row's E batches are drawn up front as sample indices, then
        handed to the stacked trainer or the serial row loop; both train
        the same rows on the same samples. Returns per-row mean training
        losses in ``ids`` order (empty, with nothing drawn, for no ids).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0)
        idx, k = self.nodes.draw(ids, self.local_steps)
        if self.stacked is not None:
            return self.stacked.train_rows(
                state, ids, self.nodes.x, self.nodes.y, idx, k
            )
        return np.array(
            [self.train_row(state[i], idx[r, :, : k[r]]) for r, i in enumerate(ids)]
        )

    def train_row(self, row: np.ndarray, idx: np.ndarray) -> float:
        """E local SGD steps on one parameter ``row``, in place, step
        ``s`` on samples ``idx[s]`` of the bank's data. Returns the mean
        training loss over the steps."""
        x, y = self.nodes.x, self.nodes.y
        set_parameter_vector(self.model, row)
        total_loss = 0.0
        for sel in idx:
            logits = self.model(x[sel])
            total_loss += self.loss.forward(logits, y[sel])
            self.model.zero_grad()
            self.model.backward(self.loss.backward())
            self.optimizer.step()
        parameter_vector(self.model, out=row)
        return total_loss / self.local_steps
