"""Dataset partitioners mapping one global dataset onto ``n`` nodes.

The paper uses two non-IID structures:

* **2-shard** (CIFAR-10): sort samples by label, cut into ``2n`` shards,
  give each node two — most nodes end up with ≤2 distinct labels
  (McMahan et al. partition).
* **writer-clustered** (FEMNIST): each node gets all samples of one
  writer; the paper takes the top-256 writers by sample count.

IID and Dirichlet partitioners are included as controls/ablations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import ArrayDataset
from .synthetic import WriterTags

__all__ = [
    "shard_partition",
    "writer_partition",
    "iid_partition",
    "dirichlet_partition",
    "partition_csr",
    "partition_datasets",
]


def _validate(n_nodes: int, n_samples: int) -> None:
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if n_samples < n_nodes:
        raise ValueError(f"cannot split {n_samples} samples across {n_nodes} nodes")


def shard_partition(
    labels: np.ndarray,
    n_nodes: int,
    shards_per_node: int = 2,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Label-sorted shard partition (the paper's CIFAR-10 scheme).

    Sort indices by label, slice into ``n_nodes * shards_per_node``
    contiguous shards, and deal ``shards_per_node`` random shards to each
    node. With 2 shards per node most nodes hold at most two classes.
    """
    labels = np.asarray(labels)
    _validate(n_nodes, labels.shape[0])
    if shards_per_node <= 0:
        raise ValueError("shards_per_node must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)  # repro: allow[rng-default-rng] -- seeded literal fallback, deterministic for standalone use

    order = np.argsort(labels, kind="stable")
    num_shards = n_nodes * shards_per_node
    shards = np.array_split(order, num_shards)
    shard_ids = rng.permutation(num_shards)
    out: list[np.ndarray] = []
    for node in range(n_nodes):
        picks = shard_ids[node * shards_per_node : (node + 1) * shards_per_node]
        out.append(np.concatenate([shards[s] for s in picks]))
    return out


def writer_partition(
    tags: WriterTags, n_nodes: int
) -> list[np.ndarray]:
    """Map the top-``n_nodes`` writers by sample count to nodes (the
    paper's FEMNIST scheme). Raises if fewer writers than nodes exist."""
    if tags.num_writers < n_nodes:
        raise ValueError(
            f"need at least {n_nodes} writers, dataset has {tags.num_writers}"
        )
    counts = np.bincount(tags.writer, minlength=tags.num_writers)
    # top-n writers, largest first; stable tiebreak on writer id
    top = np.argsort(-counts, kind="stable")[:n_nodes]
    out = []
    for w in top:
        idx = np.nonzero(tags.writer == w)[0]
        if idx.size == 0:
            raise ValueError(f"writer {w} has no samples")
        out.append(idx)
    return out


def iid_partition(
    n_samples: int, n_nodes: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Uniform random equal-size partition (control condition)."""
    _validate(n_nodes, n_samples)
    perm = rng.permutation(n_samples)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_nodes)]


def dirichlet_partition(
    labels: np.ndarray,
    n_nodes: int,
    alpha: float,
    rng: np.random.Generator,
    min_samples: int = 1,
    max_retries: int = 100,
) -> list[np.ndarray]:
    """Dirichlet(α) label-skew partition, the standard tunable non-IID
    generator: small α ≈ shard-like, large α ≈ IID."""
    labels = np.asarray(labels)
    _validate(n_nodes, labels.shape[0])
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    num_classes = int(labels.max()) + 1

    for _ in range(max_retries):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_nodes)]
        for c in range(num_classes):
            idx = np.nonzero(labels == c)[0]
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(n_nodes, alpha))
            cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
            for node, chunk in enumerate(np.split(idx, cuts)):
                buckets[node].append(chunk)
        parts = [np.sort(np.concatenate(b)) for b in buckets]
        if min(p.size for p in parts) >= min_samples:
            return parts
    raise RuntimeError(
        f"could not satisfy min_samples={min_samples} in {max_retries} tries"
    )


def partition_csr(
    indices: Sequence[np.ndarray], n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate per-node index lists against a dataset of ``n_samples``
    rows and return them in CSR form: ``(offsets, flat)`` with node
    ``i`` owning ``flat[offsets[i]:offsets[i + 1]]``.

    Every index must lie in ``[0, n_samples)`` — a negative index would
    silently alias a sample from the end — and no sample may be
    assigned twice.
    """
    sizes = np.fromiter(
        (len(idx) for idx in indices), dtype=np.int64, count=len(indices)
    )
    offsets = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = np.concatenate(
        [np.asarray(idx, dtype=np.int64) for idx in indices]
        or [np.empty(0, dtype=np.int64)]
    )
    bad = np.flatnonzero((flat < 0) | (flat >= n_samples))
    if bad.size:
        node = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise ValueError(
            f"node {node}: partition index {int(flat[bad[0]])} out of range "
            f"for a dataset of {n_samples} samples"
        )
    repeated = np.flatnonzero(np.bincount(flat, minlength=n_samples) > 1)
    if repeated.size:
        raise ValueError(
            f"partition indices overlap across nodes: sample "
            f"{int(repeated[0])} is assigned more than once"
        )
    return offsets, flat


def partition_datasets(
    dataset: ArrayDataset, indices: Sequence[np.ndarray]
) -> list[ArrayDataset]:
    """Materialize per-node datasets from a global dataset + index lists,
    verifying the index lists are in bounds and form a disjoint family."""
    partition_csr(indices, len(dataset))
    return [dataset.subset(idx) for idx in indices]
