"""Dataset partitioners mapping one global dataset onto ``n`` nodes.

The paper uses two non-IID structures:

* **2-shard** (CIFAR-10): sort samples by label, cut into ``2n`` shards,
  give each node two — most nodes end up with ≤2 distinct labels
  (McMahan et al. partition).
* **writer-clustered** (FEMNIST): each node gets all samples of one
  writer; the paper takes the top-256 writers by sample count.

IID and Dirichlet partitioners are included as controls/ablations.

Every partitioner returns one CSR :class:`Partition`, built with array
operations: a node's index array exists only as a view of it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .dataset import ArrayDataset
from .synthetic import WriterTags

__all__ = [
    "Partition",
    "shard_partition",
    "writer_partition",
    "iid_partition",
    "dirichlet_partition",
    "partition_datasets",
]


class Partition:
    """The sample→node assignment in CSR form: node ``i`` owns dataset
    rows ``indices[offsets[i]:offsets[i + 1]]`` (int64, both arrays).

    ``partition[i]`` and iteration yield those per-node views, so
    ``*partition`` reads like the list of index arrays it replaces.
    Build one from such a list with :meth:`from_arrays`.
    """

    __slots__ = ("offsets", "indices")

    def __init__(self, offsets: np.ndarray, indices: np.ndarray) -> None:
        offsets, indices = np.asarray(offsets), np.asarray(indices)
        for name, arr in (("offsets", offsets), ("indices", indices)):
            if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                raise TypeError(f"partition {name} must be a 1-D integer array, "
                                f"got dtype {arr.dtype} with shape {arr.shape}")
        if (offsets.size == 0 or offsets[0] != 0 or offsets[-1] != indices.size
                or (offsets[1:] < offsets[:-1]).any()):
            raise ValueError("partition offsets must rise from 0 to the number of indices")
        self.offsets = offsets.astype(np.int64, copy=False)
        self.indices = indices.astype(np.int64, copy=False)

    @classmethod
    def from_arrays(cls, parts: Sequence[np.ndarray]) -> "Partition":
        """One node per array of ``parts``, each an integer array of
        dataset rows."""
        parts = [np.asarray(part) for part in parts]
        for node, part in enumerate(parts):
            if not np.issubdtype(part.dtype, np.integer):
                raise TypeError(f"node {node}: partition indices must be integers, "
                                f"got dtype {part.dtype}")
        offsets = np.cumsum([0] + [part.size for part in parts], dtype=np.int64)
        return cls(offsets, np.concatenate(parts or [np.empty(0, np.int64)]))

    @property
    def sizes(self) -> np.ndarray:
        """Samples per node."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, node: int) -> np.ndarray:
        node = range(len(self))[node]
        return self.indices[self.offsets[node]:self.offsets[node + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(np.split(self.indices, self.offsets[1:-1]))

    def validate(self, n_samples: int) -> None:
        """Refuse an index outside ``[0, n_samples)`` — a negative one
        would silently alias a sample from the end — and a sample
        assigned twice."""
        flat = self.indices
        bad = np.flatnonzero((flat < 0) | (flat >= n_samples))
        if bad.size:
            node = int(np.searchsorted(self.offsets, bad[0], side="right")) - 1
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


def _validate(n_nodes: int, n_samples: int) -> None:
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if n_samples < n_nodes:
        raise ValueError(f"cannot split {n_samples} samples across {n_nodes} nodes")


def _split_offsets(n_samples: int, parts: int) -> np.ndarray:
    """The bounds ``np.array_split`` cuts ``n_samples`` into ``parts``
    at: the first ``n_samples % parts`` pieces one longer."""
    q, r = divmod(n_samples, parts)
    cuts = np.arange(parts + 1, dtype=np.int64)
    return cuts * q + np.minimum(cuts, r)


def _grouped(node: np.ndarray, rows: np.ndarray, n_nodes: int) -> Partition:
    """Dataset row ``rows[k]`` dealt to node ``node[k]``; each node's
    rows ascending (one ``lexsort``)."""
    offsets = np.concatenate(([0], np.cumsum(np.bincount(node, minlength=n_nodes))))
    return Partition(offsets, rows[np.lexsort((rows, node))])


def shard_partition(
    labels: np.ndarray,
    n_nodes: int,
    shards_per_node: int = 2,
    rng: np.random.Generator | None = None,
) -> Partition:
    """Label-sorted shard partition (the paper's CIFAR-10 scheme).

    Sort indices by label, slice into ``n_nodes * shards_per_node``
    contiguous shards (``np.array_split``'s bounds), and deal
    ``shards_per_node`` random shards to each node. With 2 shards per
    node most nodes hold at most two classes.
    """
    labels = np.asarray(labels)
    _validate(n_nodes, labels.shape[0])
    if shards_per_node <= 0:
        raise ValueError("shards_per_node must be positive")
    num_shards = n_nodes * shards_per_node
    if labels.shape[0] < num_shards:
        raise ValueError(f"cannot deal {num_shards} shards ({n_nodes} nodes x {shards_per_node})"
                         f" from {labels.shape[0]} samples: a shard would be empty")
    rng = rng if rng is not None else np.random.default_rng(0)  # repro: allow[rng-default-rng] -- seeded literal fallback, deterministic for standalone use

    order = np.argsort(labels, kind="stable")
    bounds = _split_offsets(order.size, num_shards)
    # node i's shards are dealt[i * spn:(i + 1) * spn]: gather them in one pass
    dealt = rng.permutation(num_shards)
    lengths = np.diff(bounds)[dealt]
    ends = np.cumsum(lengths)
    rows = np.repeat(bounds[dealt] - (ends - lengths), lengths) + np.arange(order.size)
    offsets = np.concatenate(([0], ends[shards_per_node - 1::shards_per_node]))
    return Partition(offsets, order[rows])


def writer_partition(tags: WriterTags, n_nodes: int) -> Partition:
    """Map the top-``n_nodes`` writers by sample count to nodes (the
    paper's FEMNIST scheme). Raises if fewer writers than nodes exist."""
    if tags.num_writers < n_nodes:
        raise ValueError(
            f"need at least {n_nodes} writers, dataset has {tags.num_writers}"
        )
    counts = np.bincount(tags.writer, minlength=tags.num_writers)
    # top-n writers, largest first; stable tiebreak on writer id
    top = np.argsort(-counts, kind="stable")[:n_nodes]
    empty = np.flatnonzero(counts[top] == 0)
    if empty.size:
        raise ValueError(f"writer {top[empty[0]]} has no samples")
    node_of = np.full(tags.num_writers, n_nodes, dtype=np.int64)
    node_of[top] = np.arange(n_nodes)
    node = node_of[tags.writer]
    mine = node < n_nodes
    return _grouped(node[mine], np.flatnonzero(mine), n_nodes)


def iid_partition(n_samples: int, n_nodes: int, rng: np.random.Generator) -> Partition:
    """Uniform random equal-size partition (control condition)."""
    _validate(n_nodes, n_samples)
    node = np.repeat(np.arange(n_nodes), np.diff(_split_offsets(n_samples, n_nodes)))
    return _grouped(node, rng.permutation(n_samples), n_nodes)


def dirichlet_partition(
    labels: np.ndarray,
    n_nodes: int,
    alpha: float,
    rng: np.random.Generator,
    min_samples: int = 1,
    max_retries: int = 100,
) -> Partition:
    """Dirichlet(α) label-skew partition, the standard tunable non-IID
    generator: small α ≈ shard-like, large α ≈ IID."""
    labels = np.asarray(labels)
    _validate(n_nodes, labels.shape[0])
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    num_classes = int(labels.max()) + 1

    for _ in range(max_retries):
        rows: list[np.ndarray] = []
        counts = np.zeros((num_classes, n_nodes), dtype=np.int64)
        for c in range(num_classes):
            idx = np.nonzero(labels == c)[0]
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(n_nodes, alpha))
            # node j takes idx[cuts[j - 1]:cuts[j]] of this class
            cuts = (np.cumsum(props) * idx.size).astype(int)
            cuts[-1] = idx.size
            counts[c] = np.diff(cuts, prepend=0)
            rows.append(idx)
        if counts.sum(axis=0).min() >= min_samples:
            node = np.repeat(np.tile(np.arange(n_nodes), num_classes), counts.ravel())
            return _grouped(node, np.concatenate(rows), n_nodes)
    raise RuntimeError(
        f"could not satisfy min_samples={min_samples} in {max_retries} tries"
    )


def partition_datasets(dataset: ArrayDataset, partition: Partition) -> list[ArrayDataset]:
    """Materialize per-node datasets from a global dataset + partition,
    verifying the partition is in bounds and disjoint."""
    partition.validate(len(dataset))
    return [dataset.subset(idx) for idx in partition]
