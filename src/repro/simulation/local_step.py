"""The local step both engines run — Algorithm 1's E plain-SGD steps on
each listed node's own mini-batches (Table 1) — and its evaluator.

The sync engine hands :class:`LocalTrainer` a round's masked nodes, the
async engine one disjoint event batch. Every call trains its rows as
one stacked block (:class:`~repro.nn.batched.BatchedTrainer`), which is
bit-identical to training each row alone on one workspace model: plain
SGD carries no optimizer state, so the rows never interact.
"""

from __future__ import annotations

import numpy as np

from ..nn.batched import BatchedEvaluator, BatchedTrainer
from ..nn.module import Module
from .node_bank import NodeBank

__all__ = ["LocalTrainer"]


class LocalTrainer:
    """Trains rows of an ``(n, dim)`` state matrix on their nodes' data.

    Builds the stacked trainer and evaluator here, so a model without a
    batched mirror raises :class:`~repro.nn.batched.UnsupportedLayerError`
    at engine construction, not rounds into a run."""

    def __init__(
        self,
        model: Module,
        nodes: NodeBank,
        local_steps: int,
        lr: float,
        weight_decay: float,
    ) -> None:
        self.model = model
        self.nodes = nodes
        self.local_steps = local_steps
        self.lr, self.weight_decay = lr, weight_decay
        self.stacked = BatchedTrainer(model, lr=lr, weight_decay=weight_decay)
        self.evaluator = BatchedEvaluator(model)

    def train(self, state: np.ndarray, ids) -> np.ndarray:
        """E local steps on each row ``ids`` of ``state``, in place.

        Every row's E batches are drawn up front as sample indices, then
        trained as one stacked block. Returns per-row mean training
        losses in ``ids`` order (empty, with nothing drawn, for no ids).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0)
        idx, k = self.nodes.draw(ids, self.local_steps)
        return self.stacked.train_rows(
            state, ids, self.nodes.x, self.nodes.y, idx, k
        )
