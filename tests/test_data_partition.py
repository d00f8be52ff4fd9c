"""Partitioner tests, including hypothesis properties over sizes/seeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ArrayDataset,
    class_distribution_matrix,
    dirichlet_partition,
    heterogeneity_score,
    iid_partition,
    labels_per_node,
    partition_csr,
    partition_datasets,
    shard_partition,
    synthetic_femnist,
    writer_partition,
)


def assert_valid_partition(parts, n_samples):
    """Disjointness + coverage ≤ n_samples."""
    all_idx = np.concatenate(parts)
    assert len(np.unique(all_idx)) == len(all_idx), "overlap"
    assert all_idx.min() >= 0 and all_idx.max() < n_samples


class TestShardPartition:
    @given(st.integers(2, 16), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_partition_is_disjoint_and_complete(self, n_nodes, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, size=40 * n_nodes)
        parts = shard_partition(labels, n_nodes, rng=rng)
        assert len(parts) == n_nodes
        all_idx = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(all_idx, np.arange(labels.size))

    def test_two_shards_limit_label_diversity(self, rng):
        labels = np.repeat(np.arange(10), 100)
        parts = shard_partition(labels, 20, shards_per_node=2, rng=rng)
        per_node = [len(np.unique(labels[p])) for p in parts]
        # each node holds 2 contiguous shards => at most 4 distinct labels,
        # typically 2-3
        assert max(per_node) <= 4
        assert np.mean(per_node) < 3.5

    def test_more_shards_more_diversity(self, rng):
        labels = np.repeat(np.arange(10), 100)
        two = shard_partition(labels, 10, shards_per_node=2,
                              rng=np.random.default_rng(0))
        eight = shard_partition(labels, 10, shards_per_node=8,
                                rng=np.random.default_rng(0))
        div2 = np.mean([len(np.unique(labels[p])) for p in two])
        div8 = np.mean([len(np.unique(labels[p])) for p in eight])
        assert div8 > div2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            shard_partition(np.zeros(5, dtype=int), 10, rng=rng)
        with pytest.raises(ValueError):
            shard_partition(np.zeros(10, dtype=int), 2, shards_per_node=0, rng=rng)


class TestWriterPartition:
    def test_top_writers_selected(self, rng):
        _, _, tags = synthetic_femnist(500, 10, 8, rng)
        parts = writer_partition(tags, 4)
        sizes = [p.size for p in parts]
        counts = np.bincount(tags.writer, minlength=8)
        assert sizes == sorted(counts, reverse=True)[:4]
        assert_valid_partition(parts, 500)

    def test_each_node_single_writer(self, rng):
        _, _, tags = synthetic_femnist(400, 10, 6, rng)
        parts = writer_partition(tags, 6)
        for p in parts:
            assert len(np.unique(tags.writer[p])) == 1

    def test_too_few_writers(self, rng):
        _, _, tags = synthetic_femnist(100, 10, 3, rng)
        with pytest.raises(ValueError):
            writer_partition(tags, 5)


class TestIIDPartition:
    @given(st.integers(2, 12), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_complete_and_balanced(self, n_nodes, seed):
        rng = np.random.default_rng(seed)
        parts = iid_partition(13 * n_nodes, n_nodes, rng)
        assert_valid_partition(parts, 13 * n_nodes)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_iid_is_low_heterogeneity(self, rng):
        labels = np.repeat(np.arange(10), 200)
        x = np.zeros((2000, 1))
        ds = ArrayDataset(x, labels, 10)
        iid_parts = partition_datasets(ds, iid_partition(2000, 10, rng))
        shard_parts = partition_datasets(
            ds, shard_partition(labels, 10, rng=rng)
        )
        assert heterogeneity_score(iid_parts) < 0.2
        assert heterogeneity_score(shard_parts) > 0.6


class TestDirichletPartition:
    def test_alpha_controls_skew(self):
        labels = np.repeat(np.arange(10), 200)
        x = np.zeros((2000, 1))
        ds = ArrayDataset(x, labels, 10)
        low = partition_datasets(
            ds, dirichlet_partition(labels, 10, 0.05,
                                    np.random.default_rng(0))
        )
        high = partition_datasets(
            ds, dirichlet_partition(labels, 10, 100.0,
                                    np.random.default_rng(0))
        )
        assert heterogeneity_score(low) > heterogeneity_score(high)

    def test_disjoint_complete(self, rng):
        labels = np.repeat(np.arange(5), 100)
        parts = dirichlet_partition(labels, 8, 0.5, rng)
        all_idx = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(all_idx, np.arange(500))

    def test_min_samples_enforced(self, rng):
        labels = np.repeat(np.arange(5), 100)
        parts = dirichlet_partition(labels, 5, 1.0, rng, min_samples=10)
        assert min(p.size for p in parts) >= 10

    def test_invalid_alpha(self, rng):
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10, dtype=int), 2, 0.0, rng)


class TestPartitionDatasets:
    def test_overlap_rejected(self):
        ds = ArrayDataset(np.zeros((10, 1)), np.zeros(10, dtype=int), 1)
        with pytest.raises(ValueError):
            partition_datasets(ds, [np.array([0, 1]), np.array([1, 2])])

    def test_excess_indices_rejected(self):
        ds = ArrayDataset(np.zeros((3, 1)), np.zeros(3, dtype=int), 1)
        with pytest.raises(ValueError, match="node 1: partition index 3 out of range"):
            partition_datasets(ds, [np.array([0, 1]), np.array([2, 3])])

    def test_negative_index_rejected_not_aliased(self):
        """``-1`` used to pass the disjointness check and silently pick
        the last sample."""
        ds = ArrayDataset(np.zeros((4, 1)), np.zeros(4, dtype=int), 1)
        with pytest.raises(ValueError, match="node 0: partition index -1 out of range"):
            partition_datasets(ds, [np.array([0, -1]), np.array([2])])

    def test_valid_partition_in_csr_form(self):
        offsets, flat = partition_csr([np.array([3, 0]), np.array([2])], 4)
        assert offsets.tolist() == [0, 2, 3]
        assert flat.tolist() == [3, 0, 2]


class TestStats:
    def test_class_distribution_matrix(self, rng):
        labels = np.repeat(np.arange(4), 25)
        ds = ArrayDataset(np.zeros((100, 1)), labels, 4)
        parts = partition_datasets(ds, iid_partition(100, 4, rng))
        mat = class_distribution_matrix(parts)
        assert mat.shape == (4, 4)
        assert mat.sum() == 100

    def test_labels_per_node_shard_vs_iid(self, rng):
        labels = np.repeat(np.arange(10), 100)
        ds = ArrayDataset(np.zeros((1000, 1)), labels, 10)
        shard = partition_datasets(ds, shard_partition(labels, 10, rng=rng))
        iid = partition_datasets(ds, iid_partition(1000, 10, rng))
        assert labels_per_node(shard).mean() < labels_per_node(iid).mean()

    def test_heterogeneity_bounds(self, rng):
        labels = np.repeat(np.arange(2), 50)
        ds = ArrayDataset(np.zeros((100, 1)), labels, 2)
        # perfectly sorted two-node split: maximal heterogeneity
        parts = partition_datasets(ds, [np.arange(50), np.arange(50, 100)])
        score = heterogeneity_score(parts)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(0.5)

    def test_empty_partition_list_rejected(self):
        with pytest.raises(ValueError):
            class_distribution_matrix([])
