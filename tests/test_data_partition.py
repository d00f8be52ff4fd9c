"""Partitioner tests, including hypothesis properties over sizes/seeds.

Every partitioner builds one CSR :class:`~repro.data.Partition` with
array operations; ``tests/oracles.py`` keeps the per-node list builds
they replaced, and :class:`TestMatchesTheListOracles` holds the two to
the same bytes.
"""

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import (
    ArrayDataset,
    Partition,
    WriterTags,
    class_distribution_matrix,
    dirichlet_partition,
    heterogeneity_score,
    iid_partition,
    labels_per_node,
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

    def test_fewer_samples_than_shards_rejected(self, rng):
        """10 samples cannot fill 7 x 2 shards: four of them used to be
        dealt empty, node 5 got none, and only the ``NodeBank`` much
        later said "node 5 has an empty dataset"."""
        with pytest.raises(ValueError, match=r"cannot deal 14 shards \(7 nodes x 2\)"):
            shard_partition(np.arange(10) % 3, 7, rng=np.random.default_rng(0))
        assert shard_partition(np.arange(14) % 3, 7, rng=rng).sizes.tolist() == [2] * 7


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
            partition_datasets(ds, Partition.from_arrays([np.array([0, 1]), np.array([1, 2])]))

    def test_excess_indices_rejected(self):
        ds = ArrayDataset(np.zeros((3, 1)), np.zeros(3, dtype=int), 1)
        with pytest.raises(ValueError, match="node 1: partition index 3 out of range"):
            partition_datasets(ds, Partition.from_arrays([np.array([0, 1]), np.array([2, 3])]))

    def test_negative_index_rejected_not_aliased(self):
        """``-1`` used to pass the disjointness check and silently pick
        the last sample."""
        ds = ArrayDataset(np.zeros((4, 1)), np.zeros(4, dtype=int), 1)
        with pytest.raises(ValueError, match="node 0: partition index -1 out of range"):
            partition_datasets(ds, Partition.from_arrays([np.array([0, -1]), np.array([2])]))

    def test_valid_partition_in_csr_form(self):
        part = Partition.from_arrays([np.array([3, 0]), np.array([2])])
        part.validate(4)
        assert part.offsets.tolist() == [0, 2, 3]
        assert part.indices.tolist() == [3, 0, 2]
        assert part.offsets.dtype == part.indices.dtype == np.int64


class TestPartitionType:
    def test_per_node_views(self):
        part = Partition.from_arrays([np.array([3, 0]), np.array([], dtype=np.int64),
                                      np.array([2])])
        assert len(part) == 3 and part.sizes.tolist() == [2, 0, 1]
        assert [p.tolist() for p in part] == [[3, 0], [], [2]]
        assert part[0].tolist() == [3, 0] and part[-1].tolist() == [2]
        assert all(np.shares_memory(view, part.indices) for view in (part[0], part[2]))
        with pytest.raises(IndexError):
            part[3]

    @pytest.mark.parametrize("parts, dtype", [
        ([np.array([0.9, 1.7]), np.array([2.2])], "float64"),
        ([np.array([False, True]), np.array([2])], "bool"),
    ])
    def test_non_integer_indices_refused(self, parts, dtype):
        """Float indices used to be truncated to ``[0, 1, 2]`` without a
        word, and a bool mask failed as "sample 1 is assigned more than
        once"."""
        with pytest.raises(TypeError, match=f"node 0: partition indices must be integers, got dtype {dtype}"):
            Partition.from_arrays(parts)
        with pytest.raises(TypeError, match=f"1-D integer array, got dtype {dtype}"):
            Partition(np.array([0, 2, 3]), np.array([0, 1, 2]).astype(dtype))

    @pytest.mark.parametrize("offsets", [[1, 3], [0, 2], [0, 3, 2, 3], []])
    def test_offsets_must_rise_from_zero_to_the_index_count(self, offsets):
        with pytest.raises(ValueError, match="rise from 0"):
            Partition(np.array(offsets, dtype=np.int64), np.arange(3))


def assert_same_bytes(product, oracle_parts):
    """The CSR ``product`` is ``Partition.from_arrays(oracle_parts)`` byte
    for byte, and each per-node view is the oracle's array."""
    reference = Partition.from_arrays(oracle_parts)
    assert product.offsets.tobytes() == reference.offsets.tobytes()
    assert product.indices.tobytes() == reference.indices.tobytes()
    assert len(product) == len(oracle_parts)
    for view, array in zip(product, oracle_parts):
        assert (view.dtype, view.shape) == (array.dtype, array.shape)
        assert view.tobytes() == array.tobytes()


_LABELS = st.tuples(st.integers(1, 12), st.integers(0, 2**32 - 1))


class TestMatchesTheListOracles:
    """Same rng draws in the same order, so the same bytes as the per-node
    list builds in ``tests/oracles.py``."""

    @given(n_nodes=st.integers(1, 40), shards_per_node=st.integers(1, 4),
           spare=st.integers(0, 200), labels=_LABELS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shard(self, n_nodes, shards_per_node, spare, labels, seed):
        classes, label_seed = labels
        y = np.random.default_rng(label_seed).integers(
            0, classes, size=n_nodes * shards_per_node + spare)
        assert_same_bytes(
            shard_partition(y, n_nodes, shards_per_node, np.random.default_rng(seed)),
            oracles.shard_partition(y, n_nodes, shards_per_node, np.random.default_rng(seed)),
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    @example(seed=0)
    def test_shard_at_fleet_scale(self, seed):
        """n=16,384 nodes over the fleet preset's 8 samples per node."""
        y = np.random.default_rng(seed).integers(0, 4, size=8 * 16_384)
        assert_same_bytes(
            shard_partition(y, 16_384, rng=np.random.default_rng(seed)),
            oracles.shard_partition(y, 16_384, rng=np.random.default_rng(seed)),
        )

    @given(n_nodes=st.integers(1, 40), spare=st.integers(0, 300),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_iid(self, n_nodes, spare, seed):
        assert_same_bytes(
            iid_partition(n_nodes + spare, n_nodes, np.random.default_rng(seed)),
            oracles.iid_partition(n_nodes + spare, n_nodes, np.random.default_rng(seed)),
        )

    @given(n_nodes=st.integers(1, 30), samples=st.integers(30, 400),
           alpha=st.sampled_from([0.05, 0.3, 1.0, 10.0, 1000.0]),
           min_samples=st.integers(0, 3), labels=_LABELS,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dirichlet(self, n_nodes, samples, alpha, min_samples, labels, seed):
        classes, label_seed = labels
        y = np.random.default_rng(label_seed).integers(0, classes, size=max(samples, n_nodes))
        try:
            expected = oracles.dirichlet_partition(
                y, n_nodes, alpha, np.random.default_rng(seed), min_samples, max_retries=5)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="min_samples"):
                dirichlet_partition(y, n_nodes, alpha, np.random.default_rng(seed),
                                    min_samples, max_retries=5)
            return
        assert_same_bytes(
            dirichlet_partition(y, n_nodes, alpha, np.random.default_rng(seed),
                                min_samples, max_retries=5),
            expected,
        )

    @given(writers=st.integers(1, 30), samples=st.integers(1, 400), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_writer(self, writers, samples, data, seed):
        n_nodes = data.draw(st.integers(1, writers))
        tags = WriterTags(np.random.default_rng(seed).integers(0, writers, size=samples),
                          writers)
        expected = oracles.writer_partition(tags, n_nodes)
        if min(p.size for p in expected) == 0:
            with pytest.raises(ValueError, match="has no samples"):
                writer_partition(tags, n_nodes)
        else:
            assert_same_bytes(writer_partition(tags, n_nodes), expected)


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
        parts = partition_datasets(
            ds, Partition.from_arrays([np.arange(50), np.arange(50, 100)])
        )
        score = heterogeneity_score(parts)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(0.5)

    def test_empty_partition_list_rejected(self):
        with pytest.raises(ValueError):
            class_distribution_matrix([])
