"""``repro.data`` — synthetic datasets, partitioners and partition stats.

Substitutes for the CIFAR-10 / FEMNIST downloads the paper uses (no
network access offline); see DESIGN.md §2 for the substitution argument.
"""

from .dataset import ArrayDataset, DataLoader
from .partition import (
    Partition,
    dirichlet_partition,
    iid_partition,
    partition_datasets,
    shard_partition,
    writer_partition,
)
from .stats import class_distribution_matrix, heterogeneity_score, labels_per_node
from .transforms import Standardizer, fit_standardizer, per_node_standardizers
from .synthetic import (
    CIFAR10_SMALL_SPEC,
    CIFAR10_SPEC,
    FEMNIST_SMALL_SPEC,
    FEMNIST_SPEC,
    SyntheticSpec,
    WriterTags,
    make_classification_images,
    synthetic_cifar10,
    synthetic_femnist,
)

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "SyntheticSpec",
    "WriterTags",
    "make_classification_images",
    "synthetic_cifar10",
    "synthetic_femnist",
    "CIFAR10_SPEC",
    "FEMNIST_SPEC",
    "CIFAR10_SMALL_SPEC",
    "FEMNIST_SMALL_SPEC",
    "Partition",
    "shard_partition",
    "writer_partition",
    "iid_partition",
    "dirichlet_partition",
    "partition_datasets",
    "class_distribution_matrix",
    "labels_per_node",
    "heterogeneity_score",
    "Standardizer",
    "fit_standardizer",
    "per_node_standardizers",
]
