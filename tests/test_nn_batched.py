"""Unit tests for the batched (node-axis) kernels and layer mirrors.

The vectorized engine's bit-compatibility contract rests on each
batched kernel being slice-for-slice bit-identical to its serial
counterpart — these tests pin that property layer by layer, so an
engine-level equality failure localizes immediately.
"""

import numpy as np
import pytest

from repro.nn import (
    CrossEntropyLoss,
    SGD,
    small_cnn,
    small_mlp,
)
from repro.nn import functional as F
from repro.nn.batched import (
    BatchedTrainer,
    UnsupportedLayerError,
    vectorize_module,
)
from repro.nn.layers import Dropout, Linear
from repro.nn.models import gn_lenet_cifar10
from repro.nn.module import Sequential
from repro.nn.serialization import parameter_vector, set_parameter_vector

RNG = np.random.default_rng(0)


def _rows_for(model, k, jitter=0.01):
    """k slightly-perturbed copies of the model's parameter vector."""
    base = parameter_vector(model)
    return np.tile(base, (k, 1)) + jitter * RNG.normal(size=(k, base.size))


def _serial_reference(model, rows, batch_lists, lr, weight_decay=0.0):
    """Per-node loop with the serial layers: the ground truth."""
    out = rows.copy()
    loss = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=lr, weight_decay=weight_decay)
    losses = np.empty(len(batch_lists))
    for r, batches in enumerate(batch_lists):
        set_parameter_vector(model, out[r])
        total = 0.0
        for xb, yb in batches:
            logits = model(xb)
            total += loss.forward(logits, yb)
            model.zero_grad()
            model.backward(loss.backward())
            opt.step()
        parameter_vector(model, out=out[r])
        losses[r] = total / len(batches)
    return out, losses


def _train_rows(trainer, rows, batch_lists):
    """Train ``rows`` in place on ``batch_lists`` through the trainer's
    index form: every batch's samples laid end to end in one global
    ``x``/``y``, ``idx[r, s, :k[r]]`` pointing at row ``r``'s step ``s``."""
    k = np.array([bl[0][0].shape[0] for bl in batch_lists])
    x = np.concatenate([xb for bl in batch_lists for xb, _ in bl])
    y = np.concatenate([yb for bl in batch_lists for _, yb in bl])
    idx = np.zeros((len(batch_lists), len(batch_lists[0]), k.max()), dtype=np.int64)
    start = 0
    for r, batches in enumerate(batch_lists):
        for s in range(len(batches)):
            idx[r, s, : k[r]] = np.arange(start, start + k[r])
            start += k[r]
    return trainer.train_rows(rows, np.arange(len(rows)), x, y, idx, k)


class TestBatchedKernels:
    def test_batched_linear_forward_matches_slices(self):
        k, b, fi, fo = 5, 7, 11, 3
        x = RNG.normal(size=(k, b, fi))
        w = RNG.normal(size=(k, fi, fo))
        bias = RNG.normal(size=(k, fo))
        out = F.batched_linear_forward(x, w, bias)
        for s in range(k):
            np.testing.assert_array_equal(out[s], x[s] @ w[s] + bias[s])

    def test_batched_linear_backward_matches_slices(self):
        k, b, fi, fo = 4, 6, 9, 5
        x = RNG.normal(size=(k, b, fi))
        w = RNG.normal(size=(k, fi, fo))
        g = RNG.normal(size=(k, b, fo))
        gx, gw, gb = F.batched_linear_backward(x, w, g)
        for s in range(k):
            np.testing.assert_array_equal(gw[s], x[s].T @ g[s])
            np.testing.assert_array_equal(gb[s], g[s].sum(axis=0))
            np.testing.assert_array_equal(gx[s], g[s] @ w[s].T)

    def test_batched_cross_entropy_matches_serial_loss(self):
        k, b, ncls = 6, 8, 4
        logits = RNG.normal(size=(k, b, ncls))
        targets = RNG.integers(0, ncls, size=(k, b))
        losses, grad = F.batched_cross_entropy(logits, targets)
        ref = CrossEntropyLoss()
        for s in range(k):
            assert losses[s] == ref.forward(logits[s], targets[s])
            np.testing.assert_array_equal(grad[s], ref.backward())

    def test_batched_cross_entropy_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.batched_cross_entropy(np.zeros((3, 4)), np.zeros((3,), dtype=int))
        with pytest.raises(ValueError):
            F.batched_cross_entropy(
                np.zeros((3, 4, 2)), np.zeros((3, 5), dtype=int)
            )

    def test_batched_im2col_matches_serial_per_slice(self):
        k, b, c, h, w = 3, 4, 2, 6, 6
        x = RNG.normal(size=(k, b, c, h, w))
        cols = F.batched_im2col(x, 3, 3, stride=1, padding=1)
        for s in range(k):
            np.testing.assert_array_equal(
                cols[s], F.im2col(x[s], 3, 3, stride=1, padding=1)
            )


class TestVectorizeModule:
    def test_round_trips_all_supported_layers(self):
        model = gn_lenet_cifar10(rng=np.random.default_rng(1))
        bmodel = vectorize_module(model)
        assert bmodel.dim == model.num_parameters()

    def test_rejects_dropout(self):
        model = Sequential(Linear(4, 4), Dropout(0.5))
        with pytest.raises(UnsupportedLayerError):
            vectorize_module(model)

    def test_bind_rejects_wrong_width(self):
        bmodel = vectorize_module(small_mlp(8, 3, hidden=4))
        with pytest.raises(ValueError):
            bmodel.bind(np.zeros((2, bmodel.dim + 1)))

    def test_bound_views_alias_block(self):
        """Optimizer updates must land in the caller's block rows."""
        model = small_mlp(8, 3, hidden=4, rng=np.random.default_rng(2))
        bmodel = vectorize_module(model)
        block = _rows_for(model, 3)
        before = block.copy()
        bmodel.bind(block)
        for p, _ in [(p, g) for p, g in bmodel.param_grad_pairs()]:
            p += 1.0
        assert not np.array_equal(block, before)


class TestBatchedTrainerExactness:
    @pytest.mark.parametrize(
        "model_factory,feat_shape",
        [
            (lambda rng: small_mlp(16, 4, hidden=8, rng=rng), (16,)),
            (lambda rng: small_cnn(1, 8, 4, channels=4, rng=rng), (1, 8, 8)),
        ],
        ids=["mlp", "cnn"],
    )
    def test_bitwise_equal_to_serial_loop(self, model_factory, feat_shape):
        model = model_factory(np.random.default_rng(3))
        k, steps, batch = 5, 3, 6
        rows = _rows_for(model, k)
        batch_lists = [
            [
                (RNG.normal(size=(batch, *feat_shape)), RNG.integers(0, 4, size=batch))
                for _ in range(steps)
            ]
            for _ in range(k)
        ]
        ref_rows, ref_losses = _serial_reference(model, rows, batch_lists, lr=0.2)
        got = rows.copy()
        losses = _train_rows(BatchedTrainer(model, lr=0.2), got, batch_lists)
        np.testing.assert_array_equal(got, ref_rows)
        np.testing.assert_array_equal(losses, ref_losses)

    def test_gn_lenet_paper_model_bitwise_equal(self):
        """The paper's full GN-LeNet (Conv/GroupNorm/ReLU/MaxPool stack)."""
        model = gn_lenet_cifar10(rng=np.random.default_rng(4))
        k, steps, batch = 2, 2, 3
        rows = _rows_for(model, k)
        batch_lists = [
            [
                (RNG.normal(size=(batch, 3, 32, 32)), RNG.integers(0, 10, size=batch))
                for _ in range(steps)
            ]
            for _ in range(k)
        ]
        ref_rows, ref_losses = _serial_reference(model, rows, batch_lists, lr=0.1)
        got = rows.copy()
        losses = _train_rows(BatchedTrainer(model, lr=0.1), got, batch_lists)
        np.testing.assert_array_equal(got, ref_rows)
        np.testing.assert_array_equal(losses, ref_losses)

    def test_weight_decay_bitwise_equal(self):
        model = small_mlp(16, 4, hidden=8, rng=np.random.default_rng(5))
        rows = _rows_for(model, 4)
        batch_lists = [
            [(RNG.normal(size=(6, 16)), RNG.integers(0, 4, size=6)) for _ in range(2)]
            for _ in range(4)
        ]
        ref_rows, _ = _serial_reference(
            model, rows, batch_lists, lr=0.3, weight_decay=0.05
        )
        got = rows.copy()
        _train_rows(BatchedTrainer(model, lr=0.3, weight_decay=0.05), got, batch_lists)
        np.testing.assert_array_equal(got, ref_rows)

    def test_ragged_batch_sizes_grouped_exactly(self):
        """Nodes with smaller-than-batch datasets form their own
        rectangular sub-blocks; results stay bit-identical."""
        model = small_mlp(16, 4, hidden=8, rng=np.random.default_rng(6))
        sizes = [8, 3, 8, 3, 5]
        rows = _rows_for(model, len(sizes))
        batch_lists = [
            [(RNG.normal(size=(s, 16)), RNG.integers(0, 4, size=s)) for _ in range(2)]
            for s in sizes
        ]
        ref_rows, ref_losses = _serial_reference(model, rows, batch_lists, lr=0.2)
        got = rows.copy()
        losses = _train_rows(BatchedTrainer(model, lr=0.2), got, batch_lists)
        np.testing.assert_array_equal(got, ref_rows)
        np.testing.assert_array_equal(losses, ref_losses)

    def test_empty_block_is_noop(self):
        model = small_mlp(8, 3, hidden=4)
        none = np.empty(0, dtype=np.int64)
        out = BatchedTrainer(model, lr=0.1).train_rows(
            np.empty((0, model.num_parameters())), none,
            np.empty((0, 8)), none, np.empty((0, 1, 0), dtype=np.int64), none,
        )
        assert out.shape == (0,)
