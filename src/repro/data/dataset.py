"""Dataset container and mini-batch loader."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["ArrayDataset", "DataLoader"]


class ArrayDataset:
    """In-memory supervised dataset: feature array + integer labels.

    Features may be any shape ``(N, ...)``; labels are ``(N,)`` ints.
    Subsetting returns views where possible (no pixel copies when the
    index is a slice).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, num_classes: int) -> None:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"length mismatch: x has {x.shape[0]}, y has {y.shape[0]}")
        if y.ndim != 1:
            raise ValueError("labels must be 1-D")
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if y.size and (y.min() < 0 or y.max() >= num_classes):
            raise ValueError("labels out of range")
        self.x = x
        self.y = y.astype(np.int64)
        self.num_classes = num_classes

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, indices: np.ndarray | slice) -> "ArrayDataset":
        """Dataset restricted to ``indices`` (row order preserved)."""
        return ArrayDataset(self.x[indices], self.y[indices], self.num_classes)

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts, shape ``(num_classes,)``."""
        return np.bincount(self.y, minlength=self.num_classes)

    def split(self, fraction: float, rng: np.random.Generator) -> tuple["ArrayDataset", "ArrayDataset"]:
        """Random split into ``(first, second)`` with ``first`` getting
        ``fraction`` of the samples. Used to carve the validation set out
        of the test set as the paper does (50/50)."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        n = len(self)
        perm = rng.permutation(n)
        k = int(round(fraction * n))
        return self.subset(perm[:k]), self.subset(perm[k:])


class DataLoader:
    """Infinite sampler of mini-batches from an :class:`ArrayDataset`.

    D-PSGD samples a fresh mini-batch per local step rather than making
    epoch passes, so the loader exposes :meth:`sample` (a fresh batch
    per call, drawn without replacement within the batch) plus an
    epoch-style iterator for evaluation code. The engines draw their
    batches through :class:`repro.simulation.node_bank.NodeBank`, which
    makes the same per-step draw for all nodes without per-node copies
    of the data; the loader remains for standalone use.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        rng: np.random.Generator,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(dataset) == 0:
            raise ValueError("cannot load from an empty dataset")
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = rng
        self.drop_last = drop_last

    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        """One random mini-batch (without replacement within the batch)."""
        n = len(self.dataset)
        k = min(self.batch_size, n)
        idx = self.rng.choice(n, size=k, replace=False)
        return self.dataset.x[idx], self.dataset.y[idx]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One shuffled pass over the dataset."""
        n = len(self.dataset)
        perm = self.rng.permutation(n)
        for start in range(0, n, self.batch_size):
            idx = perm[start : start + self.batch_size]
            if self.drop_last and idx.size < self.batch_size:
                return
            yield self.dataset.x[idx], self.dataset.y[idx]

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size
