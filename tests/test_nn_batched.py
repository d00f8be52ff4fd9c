"""Unit tests for the batched (node-axis) kernels and layer mirrors.

The stacked engine's bit-compatibility contract rests on each
batched kernel being slice-for-slice bit-identical to its serial
counterpart — these tests pin that property layer by layer, so an
engine-level equality failure localizes immediately.
"""

import gc
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lanes as lanes_module
from repro.data.dataset import ArrayDataset
from repro.nn import (
    CrossEntropyLoss,
    SGD,
    small_cnn,
    small_mlp,
)
from repro.nn import functional as F
from repro.nn.batched import (
    BatchedElementwise,
    BatchedEvaluator,
    BatchedTrainer,
    UnsupportedLayerError,
    Workspace,
    vectorize_module,
)
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.layers.normalization import GroupNorm
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
        # destinations laid out as the layers bind them: columns of a
        # wider (k, dim) plane, so only each node's slice is contiguous
        plane = np.full((k, 3 + fo + fi * fo), np.nan)
        gb = plane[:, 3 : 3 + fo]
        gw = plane[:, 3 + fo :].reshape(k, fi, fo)
        gx = np.full(x.shape, np.nan)
        F.batched_linear_backward(x, w, g, grad_w=gw, grad_b=gb, grad_x=gx)
        assert np.isnan(plane[:, :3]).all()
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

    @pytest.mark.parametrize("bad", [-1, 4, 16])
    def test_batched_cross_entropy_rejects_labels_outside_the_head(self, bad):
        """The picks go through one flat index, where an out-of-range
        label would read another sample's logits instead of failing."""
        targets = RNG.integers(0, 4, size=(3, 5))
        targets[2, 4] = bad
        with pytest.raises(IndexError, match=r"\[0, 4\)"):
            F.batched_cross_entropy(RNG.normal(size=(3, 5, 4)), targets)

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

    def test_repeated_ids_raise_before_state_is_touched(self):
        model = small_mlp(16, 4, hidden=8, rng=np.random.default_rng(7))
        state = _rows_for(model, 4)
        before = state.copy()
        x, y = RNG.normal(size=(12, 16)), RNG.integers(0, 4, size=12)
        idx = RNG.integers(0, 12, size=(3, 2, 4))
        with pytest.raises(ValueError, match="distinct"):
            BatchedTrainer(model, lr=0.1).train_rows(
                state, np.array([2, 0, 2]), x, y, idx, np.full(3, 4)
            )
        assert state.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "ids,k",
        [([-1, 3], [4, 4]), ([4], [4]), ([9, 1], [8, 4]), ([1, -2], [4, 3])],
        ids=["negative", "one-past", "ragged-far", "ragged-negative"],
    )
    def test_row_ids_outside_the_state_raise_before_state_is_touched(self, ids, k):
        """``-1`` used to pass the distinct check beside ``3`` — both
        name row 3, which then trained twice in one block — and a ragged
        call trained its in-range group before failing on the other."""
        model = small_mlp(16, 4, hidden=8, rng=np.random.default_rng(7))
        state = _rows_for(model, 4)
        before = state.copy()
        x, y = RNG.normal(size=(12, 16)), RNG.integers(0, 4, size=12)
        idx = RNG.integers(0, 12, size=(len(ids), 2, max(k)))
        with pytest.raises(IndexError, match=r"row ids must lie in \[0, 4\)"):
            BatchedTrainer(model, lr=0.1).train_rows(
                state, np.array(ids), x, y, idx, np.array(k)
            )
        assert state.tobytes() == before.tobytes()

    def test_out_of_range_batch_indices_raise_before_state_is_touched(self):
        model = small_mlp(16, 4, hidden=8, rng=np.random.default_rng(7))
        state = _rows_for(model, 2)
        x, y = RNG.normal(size=(12, 16)), RNG.integers(0, 4, size=12)
        before = state.copy()
        for bad in (12, -1):
            idx = RNG.integers(0, 12, size=(2, 2, 4))
            idx[1, 1, 2] = bad  # the last step of the last row
            with pytest.raises(IndexError):
                BatchedTrainer(model, lr=0.1).train_rows(
                    state, np.arange(2), x, y, idx, np.full(2, 4)
                )
            assert state.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [-1, 10, 15])
    def test_labels_outside_the_head_raise_before_state_is_touched(self, bad):
        """A 16-class label array against the 10-output bench MLP: a
        negative label used to wrap onto the last class silently, one
        past the head failed mid-call from inside fancy indexing."""
        model = small_mlp(64, 10, hidden=24, rng=np.random.default_rng(7))
        state = _rows_for(model, 4)
        before = state.copy()
        x = RNG.normal(size=(40, 64))
        y = RNG.integers(0, 16, size=40)
        y[:20] = RNG.integers(0, 10, size=20)
        y[33] = bad
        idx = RNG.integers(0, 20, size=(3, 2, 4))
        trainer = BatchedTrainer(model, lr=0.1)
        ragged = np.array([4, 4, 3])
        idx[2, 1, 2] = 33  # the last step of the last row
        for ids in (np.arange(3), np.array([3, 0, 2])):
            for k in (np.full(3, 4), ragged):
                with pytest.raises(IndexError, match=r"\[0, 10\)"):
                    trainer.train_rows(state, ids, x, y, idx, k)
                assert state.tobytes() == before.tobytes()
        # a label only a padding column points at is never used
        idx[2, 1, 2:] = 0, 33
        trainer.train_rows(state, np.arange(3), x, y, idx, ragged)

    @pytest.mark.parametrize(
        "pool,pooled",
        [(MaxPool2d(2), 3), (AvgPool2d(2), 3), (AvgPool2d(3, 2), 2)],
        ids=["max", "avg", "avg-overlapping"],
    )
    def test_pooling_behind_a_conv_bitwise_equal(self, pool, pooled):
        """A conv's output is a transposed view, and a window mean sums
        in memory order: pooling the stack with the node axis folded into
        the batch axis copied it into C order, which moved average
        pooling's bits by an ulp (max pooling only picks, so it never
        showed)."""
        rng = np.random.default_rng(14)
        model = Sequential(
            Conv2d(3, 4, 3, rng=rng), ReLU(), pool, Flatten(),
            Linear(4 * pooled * pooled, 5, rng=rng),
        )
        k, steps, batch = 4, 2, 6
        rows = _rows_for(model, k, jitter=0.3)
        batch_lists = [
            [(RNG.normal(size=(batch, 3, 8, 8)), RNG.integers(0, 5, size=batch))
             for _ in range(steps)]
            for _ in range(k)
        ]
        ref_rows, ref_losses = _serial_reference(model, rows, batch_lists, lr=0.1)
        got = rows.copy()
        losses = _train_rows(BatchedTrainer(model, lr=0.1), got, batch_lists)
        np.testing.assert_array_equal(got, ref_rows)
        np.testing.assert_array_equal(losses, ref_losses)

    def test_a_model_without_a_linear_head_is_rejected(self):
        model = Sequential(Conv2d(1, 2, 3, padding=1, rng=RNG), Flatten())
        with pytest.raises(UnsupportedLayerError, match="head"):
            BatchedTrainer(model, lr=0.1)


# -- the stacked step against the serial loop, over everything it branches on --

FEATURES = (1, 4, 4)
CLASSES = 4
SAMPLES = 40


def _mlp(rng):
    return small_mlp(16, CLASSES, hidden=8, rng=rng)


def _conv(rng):
    return small_cnn(1, 4, CLASSES, channels=3, rng=rng)


def _conv_groupnorm(rng):
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        GroupNorm(2, 4),
        ReLU(),
        MaxPool2d(2),
        Conv2d(4, 6, 3, padding=1, rng=rng),
        GroupNorm(3, 6),
        ReLU(),
        Flatten(),
        Linear(6 * 2 * 2, CLASSES, rng=rng),
    )


def _leaky_tanh(rng):
    return Sequential(
        Flatten(),
        Linear(16, 8, rng=rng),
        LeakyReLU(0.1),
        Linear(8, 6, rng=rng, bias=False),
        Tanh(),
        Linear(6, CLASSES, rng=rng),
    )


def _sigmoid_no_bias(rng):
    return Sequential(
        Conv2d(1, 2, 3, padding=1, rng=rng, bias=False),
        Sigmoid(),
        MaxPool2d(2),
        Flatten(),
        Linear(2 * 2 * 2, CLASSES, rng=rng),
    )


def _conv_avgpool(rng):
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(4 * 2 * 2, CLASSES, rng=rng),
    )


FAMILIES = {
    "mlp": _mlp,
    "conv-avgpool": _conv_avgpool,
    "conv": _conv,
    "conv-groupnorm": _conv_groupnorm,
    "leaky-tanh": _leaky_tanh,
    "sigmoid-no-bias": _sigmoid_no_bias,
}


def _serial_train_rows(model, state, ids, x, y, idx, k, lr, weight_decay=0.0):
    """``train_rows``'s contract spelled as the serial per-node loop:
    returns ``(expected state, per-row mean losses)``."""
    out = state.copy()
    loss = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=lr, weight_decay=weight_decay)
    losses = np.empty(len(ids))
    for pos, row in enumerate(ids):
        set_parameter_vector(model, out[row])
        total = 0.0
        for step in range(idx.shape[1]):
            sel = idx[pos, step, : k[pos]]
            total += loss.forward(model(x[sel]), y[sel])
            model.zero_grad()
            model.backward(loss.backward())
            opt.step()
        parameter_vector(model, out=out[row])
        losses[pos] = total / idx.shape[1]
    return out, losses


@st.composite
def _calls(draw, n_rows):
    """A sequence of ``train_rows`` calls against an ``n_rows`` state:
    each picks its rows (full range / interior run / single row /
    shuffled subset), every row's batch width, and the local steps."""
    calls = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["full", "run", "single", "subset"]))
        if kind == "full":
            ids = np.arange(n_rows)
        elif kind == "run":
            lo = draw(st.integers(1, n_rows - 3))
            ids = np.arange(lo, draw(st.integers(lo + 2, n_rows - 1)))
        elif kind == "single":
            ids = np.array([draw(st.integers(0, n_rows - 1))])
        else:
            ids = np.array(draw(st.permutations(range(n_rows))))[
                : draw(st.integers(2, n_rows - 1))
            ]
        widths = draw(st.sampled_from([(5,), (5, 2), (3, 1, 4)]))
        k = np.array([draw(st.sampled_from(widths)) for _ in ids])
        steps = draw(st.integers(1, 3))
        seed = draw(st.integers(0, 2**16))
        idx = np.random.default_rng(seed).integers(
            0, SAMPLES, size=(ids.size, steps, int(k.max()))
        )
        calls.append((ids, k, idx))
    return calls


class TestStackedStepAgainstSerialLoop:
    N_ROWS = 7

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_one_trainer_many_calls_bitwise(self, family, data):
        """One trainer instance serves calls of growing and shrinking
        size; after each, the whole state — trained rows and every row
        not listed, both neighbours of an in-place run included — and
        the losses equal the serial loop's."""
        weight_decay = data.draw(st.sampled_from([0.0, 0.03]))
        calls = data.draw(_calls(self.N_ROWS))
        rng = np.random.default_rng(11)
        model = FAMILIES[family](rng)
        x = rng.normal(size=(SAMPLES, *FEATURES))
        y = rng.integers(0, CLASSES, size=SAMPLES)
        base = parameter_vector(model)
        state = np.tile(base, (self.N_ROWS, 1)) + 0.05 * rng.normal(
            size=(self.N_ROWS, base.size)
        )
        trainer = BatchedTrainer(model, lr=0.2, weight_decay=weight_decay)
        for ids, k, idx in calls:
            expected, expected_losses = _serial_train_rows(
                model, state, ids, x, y, idx, k, lr=0.2, weight_decay=weight_decay
            )
            losses = trainer.train_rows(state, ids, x, y, idx, k)
            np.testing.assert_array_equal(state, expected)
            np.testing.assert_array_equal(losses, expected_losses)
            untouched = np.setdiff1d(np.arange(self.N_ROWS), ids)
            assert state[untouched].tobytes() == expected[untouched].tobytes()

    def test_run_trains_where_it_lies_and_other_selections_are_copies(self):
        model = _mlp(np.random.default_rng(12))
        state = _rows_for(model, 6)
        x, y = RNG.normal(size=(SAMPLES, *FEATURES)), RNG.integers(0, CLASSES, size=SAMPLES)
        trainer = BatchedTrainer(model, lr=0.1)

        def trained_in_place(st_, ids):
            ids = np.asarray(ids)
            idx = RNG.integers(0, SAMPLES, size=(ids.size, 1, 3))
            trainer.train_rows(st_, ids, x, y, idx, np.full(ids.size, 3))
            return np.shares_memory(trainer.model.block, st_)

        assert trained_in_place(state, np.arange(6))
        assert trained_in_place(state, [2, 3, 4])
        assert trained_in_place(state, [5])
        assert not trained_in_place(state, [3, 2])
        assert not trained_in_place(state, [0, 2, 3])

    @pytest.mark.parametrize("how", ["strided", "float32", "readonly-run"])
    def test_unsuitable_slice_falls_back_to_the_gather(self, how):
        """A run whose rows are not a C-contiguous float64 block is not
        an error: it takes the gather/scatter path any subset takes."""
        model = _mlp(np.random.default_rng(13))
        dense = _rows_for(model, 5)
        if how == "strided":
            wide = np.zeros((5, dense.shape[1] + 3))
            state = wide[:, : dense.shape[1]]
            state[:] = dense
        elif how == "float32":
            state = dense.astype(np.float32)
        else:
            state = dense.copy()
        x, y = RNG.normal(size=(SAMPLES, *FEATURES)), RNG.integers(0, CLASSES, size=SAMPLES)
        ids, k = np.arange(1, 4), np.full(3, 4)
        idx = RNG.integers(0, SAMPLES, size=(3, 2, 4))
        trainer = BatchedTrainer(model, lr=0.1)
        if how == "readonly-run":
            state.flags.writeable = False
            with pytest.raises(ValueError, match="read-only"):
                trainer.train_rows(state, ids, x, y, idx, k)
            return
        # the same rows listed backwards are no run: the gather path
        gathered = state.copy()
        BatchedTrainer(model, lr=0.1).train_rows(
            gathered, ids[::-1], x, y, idx[::-1], k
        )
        trainer.train_rows(state, ids, x, y, idx, k)
        assert not np.shares_memory(trainer.model.block, state)
        assert state.tobytes() == gathered.tobytes()
        if how == "strided":
            expected, _ = _serial_train_rows(model, dense, ids, x, y, idx, k, lr=0.1)
            np.testing.assert_array_equal(state, expected)
            assert not wide[:, dense.shape[1] :].any()

    def test_memmap_state_trains_in_place_to_the_same_bytes(self, tmp_path):
        model = _mlp(np.random.default_rng(14))
        memory = _rows_for(model, 6)
        mapped = np.memmap(
            tmp_path / "state.bin", dtype=np.float64, mode="w+", shape=memory.shape
        )
        mapped[:] = memory
        x, y = RNG.normal(size=(SAMPLES, *FEATURES)), RNG.integers(0, CLASSES, size=SAMPLES)
        trainers = [BatchedTrainer(model, lr=0.1) for _ in range(2)]
        for ids in (np.arange(6), np.arange(2, 5), np.array([4, 0, 3])):
            idx = RNG.integers(0, SAMPLES, size=(ids.size, 2, 4))
            k = np.full(ids.size, 4)
            for trainer, state in zip(trainers, (memory, mapped)):
                trainer.train_rows(state, ids, x, y, idx, k)
            in_place = ids.size == 1 or bool((np.diff(ids) == 1).all())
            assert np.shares_memory(trainers[1].model.block, mapped) == in_place
            assert mapped.tobytes() == memory.tobytes()
        mapped.flush()
        assert np.fromfile(tmp_path / "state.bin").tobytes() == memory.tobytes()

    def test_second_call_allocates_activations_not_parameter_planes(self):
        """Steady state: the gradient plane, the layer buffers and the
        batch gathers are reused, so what a repeat call still allocates
        is loss-sized — far below one ``k * dim`` plane."""
        model = small_mlp(256, CLASSES, hidden=32, rng=np.random.default_rng(15))
        rows, batch = 32, 2
        state = _rows_for(model, rows)
        plane_bytes = state.nbytes
        x = RNG.normal(size=(SAMPLES, 256))
        y = RNG.integers(0, CLASSES, size=SAMPLES)
        ids, k = np.arange(rows), np.full(rows, batch)
        idx = RNG.integers(0, SAMPLES, size=(rows, 3, batch))
        for weight_decay in (0.0, 0.01):
            trainer = BatchedTrainer(model, lr=0.1, weight_decay=weight_decay)
            trainer.train_rows(state, ids, x, y, idx, k)
            tracemalloc.start()
            try:
                trainer.train_rows(state, ids, x, y, idx, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            activations = rows * batch * 256 * 8
            assert peak < activations < plane_bytes / 8

    def test_fixed_cost_of_a_local_step_stays_counted(self):
        """The small-block regime is all fixed cost, so the guard is a
        count, not a time: builtin calls (``sys.setprofile`` ``c_call``
        events) per local step of the bench MLP, 3 scattered rows x 10
        steps. 73.6 per step before the lean loss kernel, the memoised
        workspace views and the once-per-call label gather (101
        ``reshape``, 71 ``math.prod``, 50 ``arange`` ... per call);
        32.5 after. And a second same-shape call allocates no
        ``rows x B x K`` array: the loss writes into lent buffers."""
        model = small_mlp(64, 10, hidden=24, rng=np.random.default_rng(21))
        rows, steps, batch = 3, 10, 8
        state = _rows_for(model, 8)
        x, y = RNG.normal(size=(100, 64)), RNG.integers(0, 10, size=100)
        ids, k = np.array([1, 4, 6]), np.full(rows, batch)
        idx = RNG.integers(0, 100, size=(rows, steps, batch))
        trainer = BatchedTrainer(model, lr=0.1)
        trainer.train_rows(state, ids, x, y, idx, k)

        c_calls = 0

        def count(frame, event, arg):
            nonlocal c_calls
            c_calls += event == "c_call"

        sys.setprofile(count)
        try:
            trainer.train_rows(state, ids, x, y, idx, k)
        finally:
            sys.setprofile(None)
        assert c_calls / steps <= 36

        # what is still allocated is bounded (ufunc iteration buffers
        # of 64 KiB) or rows x B sized (labels, flat index, picks), so
        # a wide head tells it apart
        rows, classes = 128, 64
        model = small_mlp(64, classes, hidden=24, rng=np.random.default_rng(22))
        state = _rows_for(model, rows)
        y = RNG.integers(0, classes, size=100)
        ids, k = np.arange(rows), np.full(rows, batch)
        idx = RNG.integers(0, 100, size=(rows, 2, batch))
        trainer = BatchedTrainer(model, lr=0.1)
        trainer.train_rows(state, ids, x, y, idx, k)
        tracemalloc.start()
        try:
            trainer.train_rows(state, ids, x, y, idx, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * batch * classes * 8 / 2

    def test_dropped_trainer_frees_its_planes_without_the_cycle_collector(self):
        """Engines come and go inside one process (a sweep worker, the
        serve daemon); a trainer's k * dim buffers must die with it, not
        wait for a gc pass."""
        model = _conv_groupnorm(np.random.default_rng(18))
        x, y = RNG.normal(size=(SAMPLES, *FEATURES)), RNG.integers(0, CLASSES, size=SAMPLES)
        trainer = BatchedTrainer(model, lr=0.1, weight_decay=0.01)
        trainer.train_rows(
            _rows_for(model, 3), np.arange(3), x, y,
            RNG.integers(0, SAMPLES, size=(3, 1, 4)), np.full(3, 4),
        )
        planes = [weakref.ref(trainer.model.grads.base), weakref.ref(trainer.workspace)]
        gc.disable()
        try:
            del trainer
            assert all(ref() is None for ref in planes)
        finally:
            gc.enable()

    def test_backward_without_a_gradient_plane_is_an_error(self):
        bmodel = vectorize_module(_mlp(np.random.default_rng(19)))
        bmodel.bind(np.zeros((2, bmodel.dim)))
        logits = bmodel.forward(RNG.normal(size=(2, 3, *FEATURES)))
        with pytest.raises(RuntimeError, match="gradient plane"):
            bmodel.backward(np.zeros_like(logits))

    def test_backward_ends_at_the_first_parameterized_layer(self, monkeypatch):
        """The input gradient of the first layer with parameters has no
        reader: a conv-first model never runs that conv's col2im, an
        MLP never runs its first layer's grad_x GEMM."""
        col2im_shapes = []
        real_col2im = F.batched_col2im
        monkeypatch.setattr(
            F, "batched_col2im",
            lambda cols, x_shape, *a, **kw: (
                col2im_shapes.append(x_shape), real_col2im(cols, x_shape, *a, **kw)
            )[1],
        )
        wanted_grad_x = []
        real_linear_backward = F.batched_linear_backward
        monkeypatch.setattr(
            F, "batched_linear_backward",
            lambda *a, **kw: (
                wanted_grad_x.append(kw["grad_x"] is not None),
                real_linear_backward(*a, **kw),
            )[1],
        )
        x, y = RNG.normal(size=(SAMPLES, *FEATURES)), RNG.integers(0, CLASSES, size=SAMPLES)
        ids, k = np.arange(3), np.full(3, 4)
        idx = RNG.integers(0, SAMPLES, size=(3, 2, 4))

        def train(factory):
            model = factory(np.random.default_rng(16))
            BatchedTrainer(model, lr=0.1).train_rows(
                _rows_for(model, 3), ids, x, y, idx, k
            )

        train(_conv)  # one conv, in front
        assert col2im_shapes == []
        train(_conv_groupnorm)  # second conv's input gradient only, per step
        assert col2im_shapes == [(3, 4, 4, 2, 2)] * 2
        del wanted_grad_x[:]
        train(_leaky_tanh)  # per step: last, middle, first linear
        assert wanted_grad_x == [True, True, False] * 2


def _bench_mlp(rng):
    """The ``cifar10-bench`` model: 64 inputs, 10 classes, dim 1810."""
    return small_mlp(64, 10, hidden=24, rng=rng)


class TestLanes:
    """Row tiles on lanes, forced onto calls far below the real work
    floor: laned ≡ unlaned ≡ the serial row loop
    (``oracles.SerialTrainer.train_row``), byte for byte, with 7-row groups that
    neither 2 nor 3 tiles divide."""

    N_ROWS = 7
    STEPS = 3
    LR = 0.2

    @staticmethod
    def _force(monkeypatch, lanes):
        """Split every call ``lanes`` ways; return the tile counts
        each uniform-width group was cut into."""
        cuts = []
        real = lanes_module.tile_bounds

        def spy(rows, row_work, row_bytes=0):
            bounds = real(rows, row_work, row_bytes)
            cuts.append(len(bounds) - 1)
            return bounds

        monkeypatch.setattr(lanes_module, "MIN_TILE_WORK", 0)
        monkeypatch.setattr(lanes_module, "lane_count", lambda: lanes)
        monkeypatch.setattr(lanes_module, "tile_bounds", spy)
        return cuts

    def _case(self, case, tmp_path):
        """``(model, features, classes, state, ids, k, weight_decay)``."""
        rng = np.random.default_rng(30)
        if case == "conv-groupnorm":
            model, features, classes = _conv_groupnorm(rng), FEATURES, CLASSES
        else:
            model, features, classes = _bench_mlp(rng), (64,), 10
        state = _rows_for(model, self.N_ROWS, jitter=0.05)
        ids = np.arange(self.N_ROWS)
        k = np.full(self.N_ROWS, 5)
        weight_decay = 0.0
        if case == "weight-decay":
            weight_decay = 0.03
        elif case == "ragged":
            k = np.array([5, 2, 5, 5, 2, 2, 5])
        elif case == "scattered":
            ids = np.array([5, 0, 3, 6, 1, 2])
            k = np.full(ids.size, 5)
        elif case == "memmap":
            mapped = np.memmap(
                tmp_path / "state.bin", dtype=np.float64, mode="w+", shape=state.shape
            )
            mapped[:] = state
            state = mapped
        return model, features, classes, state, ids, k, weight_decay

    @pytest.mark.parametrize("lanes", [2, 3])
    @pytest.mark.parametrize(
        "case",
        ["bench-mlp", "conv-groupnorm", "weight-decay", "ragged", "scattered", "memmap"],
    )
    def test_laned_unlaned_and_the_row_loop_agree(self, case, lanes, monkeypatch, tmp_path):
        model, features, classes, state, ids, k, wd = self._case(case, tmp_path)
        x = RNG.normal(size=(SAMPLES, *features))
        y = RNG.integers(0, classes, size=SAMPLES)
        idx = RNG.integers(0, SAMPLES, size=(ids.size, self.STEPS, int(k.max())))

        unlaned = np.array(state)
        unlaned_losses = BatchedTrainer(model, lr=self.LR, weight_decay=wd).train_rows(
            unlaned, ids, x, y, idx, k
        )
        serial = np.array(state)
        rows = oracles.SerialTrainer(
            model, SimpleNamespace(x=x, y=y), self.STEPS, self.LR, wd
        )
        serial_losses = np.array(
            [rows.train_row(serial[i], idx[p, :, : k[p]]) for p, i in enumerate(ids)]
        )

        cuts = self._force(monkeypatch, lanes)
        losses = BatchedTrainer(model, lr=self.LR, weight_decay=wd).train_rows(
            state, ids, x, y, idx, k
        )
        groups = [np.sum(k == width) for width in np.unique(k)]
        assert cuts == [min(lanes, size) for size in groups]
        assert np.asarray(state).tobytes() == unlaned.tobytes() == serial.tobytes()
        assert losses.tobytes() == unlaned_losses.tobytes() == serial_losses.tobytes()
        if case == "memmap":
            state.flush()
            assert np.fromfile(tmp_path / "state.bin").tobytes() == serial.tobytes()

    def test_one_trainer_unlaned_then_on_more_and_more_lanes(self, monkeypatch):
        """Lanes are built the first time a call splits that far, and
        the process's lane threads grow with them."""
        model = _conv_groupnorm(np.random.default_rng(31))
        state = _rows_for(model, self.N_ROWS, jitter=0.05)
        x, y = RNG.normal(size=(SAMPLES, *FEATURES)), RNG.integers(0, CLASSES, size=SAMPLES)
        ids, k = np.arange(self.N_ROWS), np.full(self.N_ROWS, 4)
        trainer = BatchedTrainer(model, lr=self.LR)
        expected = state.copy()
        for lanes in (1, 2, 3, 2):
            idx = RNG.integers(0, SAMPLES, size=(self.N_ROWS, 2, 4))
            expected, expected_losses = _serial_train_rows(
                model, expected, ids, x, y, idx, k, lr=self.LR
            )
            self._force(monkeypatch, lanes)
            losses = trainer.train_rows(state, ids, x, y, idx, k)
            assert state.tobytes() == expected.tobytes()
            assert losses.tobytes() == expected_losses.tobytes()
        assert len(trainer._lanes) == 3

    @pytest.mark.parametrize("budget", [None, 1], ids=["one-wave", "waves"])
    def test_more_lanes_than_cpus_under_a_short_switch_interval(
        self, budget, monkeypatch
    ):
        """Five lanes thread-switching every microsecond: tiles of one
        and two rows race to grow the loss kernel's shared row-offset
        table, and no row may see another's bytes. Under a one-byte
        budget the seven rows are seven tiles, two waves, and lanes are
        built by the threads that first run them."""
        model = _bench_mlp(np.random.default_rng(32))
        x, y = RNG.normal(size=(SAMPLES, 64)), RNG.integers(0, 10, size=SAMPLES)
        state = _rows_for(model, self.N_ROWS, jitter=0.05)
        ids = np.array([6, 2, 0, 5, 3, 1, 4])
        trainer = BatchedTrainer(model, lr=self.LR)
        cuts = self._force(monkeypatch, 5)
        if budget is not None:
            monkeypatch.setattr(lanes_module, "ROW_BUDGET", budget)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for width in (3, 7, 5, 9):
                F._ROW_OFFSETS.clear()
                k = np.full(ids.size, width)
                idx = RNG.integers(0, SAMPLES, size=(ids.size, 2, width))
                expected, expected_losses = _serial_train_rows(
                    model, state, ids, x, y, idx, k, lr=self.LR
                )
                losses = trainer.train_rows(state, ids, x, y, idx, k)
                assert state.tobytes() == expected.tobytes()
                assert losses.tobytes() == expected_losses.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert set(cuts) == {5 if budget is None else 7}
        assert len(trainer._lanes) == 5

    def test_the_floor_keeps_small_calls_whole(self, monkeypatch):
        """Below two tiles' work a call is one tile and the CPUs are not
        even probed; the bench MLP splits from 145 rows of width 8."""
        monkeypatch.setattr(lanes_module, "lane_count", lambda: pytest.fail("probed"))
        assert lanes_module.tile_bounds(32, 1810 * 8) == [0, 32]
        assert lanes_module.tile_bounds(144, 1810 * 8) == [0, 144]
        monkeypatch.setattr(lanes_module, "lane_count", lambda: 2)
        assert lanes_module.tile_bounds(145, 1810 * 8) == [0, 72, 145]
        monkeypatch.setattr(lanes_module, "lane_count", lambda: 64)
        assert lanes_module.tile_bounds(256, 1810 * 8) == [0, 85, 170, 256]


class TestReluKernel:
    SPECIALS = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -2.5]

    @pytest.mark.parametrize("lent", [False, True], ids=["allocating", "workspace"])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_bitwise_the_serial_where_with_the_serial_layout(self, lent, layout):
        """Values, zero signs, NaN handling *and* memory layout of the
        training rectifier match the serial layer: a strided input (a
        conv's output) must come out strided the same way."""
        x = RNG.normal(size=(3, 4, 5, 2))
        x.flat[: len(self.SPECIALS)] = self.SPECIALS
        if layout == "transposed":
            x = x.transpose(0, 3, 1, 2)
        grad = RNG.normal(size=x.shape)
        serial, batched = ReLU(), BatchedElementwise(ReLU())
        if lent:
            batched.workspace = Workspace()
        for _ in range(2):  # second pass reuses the buffers
            want, got = serial.forward(x), batched.forward(x)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
            want, got = serial.backward(grad), batched.backward(grad)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides


class TestLossKernel:
    """:func:`F.batched_cross_entropy_into` against the serial
    :class:`CrossEntropyLoss`, bit for bit, slice by slice."""

    SPECIALS = TestReluKernel.SPECIALS + [1e308, -1e308, 1.5, 1.5]

    @staticmethod
    def _logits(k, b, classes, values, layout):
        """``(k, b, classes)`` logits, C-contiguous or with every
        slice transposed in memory (the node axis stays outermost: a
        slice is then laid out as the serial loss would be handed it)."""
        shape = (k, b, classes) if layout == "contiguous" else (k, classes, b)
        base = RNG.normal(size=shape)
        if values == "specials":
            specials = np.resize(TestLossKernel.SPECIALS, base.size)
            base.flat[:] = RNG.permutation(specials)
        return base if layout == "contiguous" else base.transpose(0, 2, 1)

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    @pytest.mark.parametrize("values", ["random", "specials"])
    @pytest.mark.parametrize("classes", [2, 10])
    @pytest.mark.parametrize("b", [1, 8])
    @pytest.mark.parametrize("k", [1, 3, 32])
    def test_bitwise_the_serial_loss(self, k, b, classes, values, layout):
        logits = self._logits(k, b, classes, values, layout)
        targets = RNG.integers(0, classes, size=(k, b))
        ref = CrossEntropyLoss()
        with np.errstate(all="ignore"):
            want = [
                (ref.forward(logits[s], targets[s]), ref.backward()) for s in range(k)
            ]
            got = [F.batched_cross_entropy(logits, targets)]
            if layout == "contiguous":
                log_probs, lent = np.full((2, k, b, classes), np.nan)
                for _ in range(2):  # second pass reuses the buffers
                    losses, grad = F.batched_cross_entropy_into(
                        logits, targets, log_probs, lent
                    )
                    assert grad is lent
                    got.append((losses, grad.copy()))
        for losses, grad in got:
            for s, (loss, slice_grad) in enumerate(want):
                assert losses[s].tobytes() == np.float64(loss).tobytes()
                assert grad[s].tobytes() == slice_grad.tobytes()

    def test_ci_guard_passes_here_and_catches_a_relapse(self, tmp_path):
        """CI's "Loss kernel stays lean" step (stdlib ``ast``, no
        numpy), run as CI runs it: green on this tree, red once a
        per-call ``np.arange`` is back in the kernel."""
        root = Path(__file__).parent.parent
        step = (root / ".github/workflows/ci.yml").read_text()
        step = step[step.index("name: Loss kernel stays lean") :]
        opener = "python - <<'EOF'\n"
        script = textwrap.dedent(
            step[step.index(opener) + len(opener) : step.index("          EOF\n")]
        )

        def run(cwd):
            return subprocess.run(
                [sys.executable, "-"], input=script, cwd=cwd,
                capture_output=True, text=True,
            )

        assert run(root).returncode == 0
        source = (root / "src/repro/nn/functional.py").read_text()
        relapse = tmp_path / "src/repro/nn/functional.py"
        relapse.parent.mkdir(parents=True)
        relapse.write_text(source.replace(
            "    k, b, classes = logits.shape\n",
            "    k, b, classes = logits.shape\n    ki = np.arange(k)\n",
        ))
        failed = run(tmp_path)
        assert failed.returncode == 1
        assert "batched_cross_entropy_into" in failed.stderr
        assert "arange" in failed.stderr

    def test_trainer_lends_buffers_only_to_contiguous_logits(self, monkeypatch):
        """A strided result must come from the allocating path (the
        ``scratch_like`` rule): the trainer lends its two loss buffers
        when the model's logits are C-contiguous and nothing otherwise."""
        lent = []
        real = F.batched_cross_entropy_into
        monkeypatch.setattr(
            F, "batched_cross_entropy_into",
            lambda logits, targets, *buffers: (
                lent.append(len(buffers)), real(logits, targets, *buffers)
            )[1],
        )
        model = _mlp(np.random.default_rng(20))
        x, y = RNG.normal(size=(SAMPLES, *FEATURES)), RNG.integers(0, CLASSES, size=SAMPLES)
        ids, k = np.arange(3), np.full(3, 4)
        idx = RNG.integers(0, SAMPLES, size=(3, 2, 4))
        trainer = BatchedTrainer(model, lr=0.1)
        trainer.train_rows(_rows_for(model, 3), ids, x, y, idx, k)
        assert lent == [2, 2]
        del lent[:]
        forward = trainer.model.forward
        trainer.model.forward = lambda xb: np.asfortranarray(forward(xb))
        trainer.train_rows(_rows_for(model, 3), ids, x, y, idx, k)
        assert lent == [0, 0]


class TestWorkspace:
    def test_a_repeated_take_is_the_identical_object(self):
        ws = Workspace()
        a = ws.take("a", (3, 4))
        assert ws.take("a", (3, 4)) is a
        assert a.shape == (3, 4) and a.flags.c_contiguous
        assert ws.take("a", (2, 4)) is not a
        assert np.shares_memory(ws.take("a", (2, 4)), a)
        assert not np.shares_memory(ws.take("b", (3, 4)), a)
        assert ws.take("a", (3, 4), np.int64).dtype == np.int64

    def test_an_outgrown_buffer_is_replaced_and_freed(self):
        """A larger request replaces the key's buffer; the smaller
        shape then aliases the new one, and nothing — no memoised view
        — keeps the old one alive."""
        ws = Workspace()
        small = ws.take("a", (2, 3))
        old = weakref.ref(small.base)
        gc.disable()
        try:
            del small
            big = ws.take("a", (4, 3))
            assert old() is None
            small = ws.take("a", (2, 3))
            assert np.shares_memory(small, big)
            assert ws.take("a", (4, 3)) is big
        finally:
            gc.enable()


class TestBatchedEvaluatorBinds:
    ROWS = 16

    def _setup(self):
        """A model whose parameter rows dwarf its activations, so one
        copy of the state (or a plane shaped like it) would show."""
        model = small_mlp(256, CLASSES, hidden=32, rng=np.random.default_rng(17))
        state = _rows_for(model, self.ROWS)
        data = ArrayDataset(
            RNG.normal(size=(30, 256)), RNG.integers(0, CLASSES, size=30),
            num_classes=CLASSES,
        )
        return model, state, data

    def test_evaluating_binds_no_gradient_plane(self):
        """Inference-only binds cost no grad memory: no plane, no views,
        no workspace — and nothing plane-sized is allocated."""
        model, state, data = self._setup()
        evaluator = BatchedEvaluator(model)
        tracemalloc.start()
        try:
            evaluator.evaluate(state, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert evaluator.model.grads is None
        assert all(g is None for _, g in evaluator.model.param_grad_pairs())
        assert all(layer.workspace is None for layer in evaluator.model.layers)
        assert peak < state.nbytes / 4

    def test_an_evaluation_keeps_no_backward_state(self):
        """After a pass no conv still holds its im2col columns and no
        GroupNorm its normalized activations: for a paper CNN these are
        several hundred MiB per evaluated row, kept for a backward that
        inference never runs."""
        model = _conv_groupnorm(np.random.default_rng(23))
        state = _rows_for(model, 3)
        data = ArrayDataset(
            RNG.normal(size=(20, *FEATURES)), RNG.integers(0, CLASSES, size=20),
            num_classes=CLASSES,
        )
        evaluator = BatchedEvaluator(model)
        evaluator.evaluate(state, data, batch_size=8)
        for layer in evaluator.model.layers:
            assert getattr(layer, "_cols", None) is None
            assert getattr(layer, "_cache", None) is None

    def test_all_rows_bind_the_state_itself(self):
        model, state, data = self._setup()
        evaluator = BatchedEvaluator(model)
        everyone = evaluator.evaluate(state, data)
        assert np.shares_memory(evaluator.model.block, state)
        listed = evaluator.evaluate(state, data, node_ids=np.arange(self.ROWS))
        assert not np.shares_memory(evaluator.model.block, state)
        np.testing.assert_array_equal(everyone, listed)
