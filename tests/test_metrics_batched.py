"""Batched cross-node evaluation equivalence tests.

The contract under test (see ``repro.nn.batched.BatchedEvaluator``):
per-node accuracies from the stacked evaluator are **exactly equal** —
not merely close — to the serial per-node loop, for every architecture
in the model zoo, under node subsampling, node-axis chunking (the row
plan's byte budget, run on lanes), and
inside the engine (sampled evaluation, failure-masked rounds).
"""

import dataclasses

import numpy as np
import oracles
import pytest

from repro import lanes
from repro.core import DPSGD
from repro.data.synthetic import (
    CIFAR10_SPEC,
    FEMNIST_SPEC,
    SyntheticSpec,
    make_classification_images,
)
from repro.nn import (
    cnn_femnist,
    gn_lenet_cifar10,
    logistic_regression,
    small_cnn,
    small_mlp,
)
from repro.nn.batched import BatchedEvaluator, UnsupportedLayerError
from repro.nn.layers import Dropout, Flatten, Linear
from repro.nn.module import Sequential
from repro.nn.serialization import parameter_vector
from repro.simulation import EngineConfig, build_engine
from repro.simulation.fairness import per_node_accuracy
from repro.simulation.metrics import evaluate_model_vector, evaluate_state
from tests.oracle_nn import evaluate_vector

SPEC = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                     noise_std=1.0, jitter_std=0.3, prototype_resolution=2)


def _state_for(model, n_nodes, rng):
    """Node rows: perturbed copies of the model's init (distinct rows,
    so a wrong node/row pairing cannot pass by accident)."""
    init = parameter_vector(model)
    return init[None, :] + 0.1 * rng.normal(size=(n_nodes, init.size))


def _serial_accuracies(model, state, ds, batch_size=256):
    return np.array(
        [evaluate_vector(model, state[i], ds, batch_size)
         for i in range(state.shape[0])]
    )


# Every architecture in nn/models.py, sized so the paper models stay
# test-tractable (few nodes, small test sets).
MODEL_CASES = {
    "small_mlp": (
        lambda rng: small_mlp(16, 4, hidden=8, rng=rng), SPEC, 8, 64),
    "small_cnn": (
        lambda rng: small_cnn(1, 4, 4, channels=4, rng=rng), SPEC, 8, 64),
    "logistic_regression": (
        lambda rng: logistic_regression(16, 4, rng=rng), SPEC, 8, 64),
    "gn_lenet_cifar10": (gn_lenet_cifar10, CIFAR10_SPEC, 3, 24),
    "cnn_femnist": (cnn_femnist, FEMNIST_SPEC, 2, 16),
}


class TestModelZooEquality:
    @pytest.mark.parametrize("case", sorted(MODEL_CASES), ids=str)
    def test_per_node_accuracies_exactly_equal(self, case):
        factory, spec, n_nodes, n_test = MODEL_CASES[case]
        rng = np.random.default_rng(5)
        model = factory(rng)
        ds, _ = make_classification_images(spec, n_test, rng)
        state = _state_for(model, n_nodes, rng)
        serial = _serial_accuracies(model, state, ds, batch_size=16)
        batched = BatchedEvaluator(model).evaluate(state, ds, batch_size=16)
        np.testing.assert_array_equal(serial, batched)
        one_row = [evaluate_model_vector(model, row, ds, 16) for row in state]
        np.testing.assert_array_equal(serial, one_row)

    def test_evaluate_state_mean_std_exactly_equal(self):
        rng = np.random.default_rng(0)
        model = small_mlp(16, 4, hidden=8, rng=rng)
        ds, _ = make_classification_images(SPEC, 120, rng)
        state = _state_for(model, 12, rng)
        assert evaluate_state(
            oracles.NodeByNodeEvaluator(model), state, ds
        ) == evaluate_state(BatchedEvaluator(model), state, ds)

    def test_node_subsampling_exactly_equal(self):
        """``node_ids`` order and content must carry through: accuracies
        come back in subsample order, equal to the serial loop's."""
        rng = np.random.default_rng(1)
        model = small_mlp(16, 4, hidden=8, rng=rng)
        ds, _ = make_classification_images(SPEC, 80, rng)
        state = _state_for(model, 10, rng)
        ids = np.array([7, 2, 9, 0])
        serial = np.array(
            [evaluate_vector(model, state[i], ds) for i in ids]
        )
        batched = BatchedEvaluator(model).evaluate(state, ds, node_ids=ids)
        np.testing.assert_array_equal(serial, batched)

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1, 3, 16])
    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    def test_node_chunking_changes_nothing(self, arch, chunk, count, monkeypatch):
        """Rows evaluated in chunks of ``chunk`` rows — the byte budget
        cut to that many rows' worth — on ``count`` lanes score what one
        whole-block pass scores, for all rows and for a subset."""
        rng = np.random.default_rng(2)
        if arch == "mlp":
            model = small_mlp(16, 4, hidden=8, rng=rng)
        else:
            model = small_cnn(1, 4, 4, channels=3, rng=rng)
        ds, _ = make_classification_images(SPEC, 80, rng)
        state = _state_for(model, 10, rng)
        ids = np.array([7, 2, 9, 0, 5])
        full = BatchedEvaluator(model).evaluate(state, ds)
        subset = BatchedEvaluator(model).evaluate(state, ds, node_ids=ids)
        evaluator = BatchedEvaluator(model)
        cuts = []
        real = lanes.tile_bounds

        def spy(rows, row_work, row_bytes=0):
            cuts.append(real(rows, row_work, row_bytes))
            return cuts[-1]

        budget = chunk * evaluator.row_bytes(80, ds.x.shape[1:])
        monkeypatch.setattr(lanes, "ROW_BUDGET", budget)
        monkeypatch.setattr(lanes, "lane_count", lambda: count)
        monkeypatch.setattr(lanes, "tile_bounds", spy)
        np.testing.assert_array_equal(full, evaluator.evaluate(state, ds))
        np.testing.assert_array_equal(
            subset, evaluator.evaluate(state, ds, node_ids=ids)
        )
        assert max(np.diff(cuts[0])) <= chunk
        assert len(evaluator._models) == min(count, len(cuts[0]) - 1)

    def test_diverged_nan_node_exactly_equal(self):
        """Regression: a diverged node (NaN parameters) must score the
        same under both paths. Serial ReLU is ``np.where(x > 0, x, 0)``,
        which zeroes NaN pre-activations — the batched inference
        rectifier must use ``np.fmax`` (not ``np.maximum``, which
        propagates NaN) to match it."""
        rng = np.random.default_rng(6)
        model = small_mlp(16, 4, hidden=8, rng=rng)
        ds, _ = make_classification_images(SPEC, 80, rng)
        state = _state_for(model, 6, rng)
        state[2, :5] = np.nan  # one diverged node's first-layer weights
        serial = _serial_accuracies(model, state, ds)
        batched = BatchedEvaluator(model).evaluate(state, ds)
        np.testing.assert_array_equal(serial, batched)

    def test_dataset_not_mutated_and_rerun_stable(self):
        """The inference path overwrites stacked activations in place;
        the shared prefix must never touch the dataset's storage."""
        rng = np.random.default_rng(3)
        model = small_mlp(16, 4, hidden=8, rng=rng)
        ds, _ = make_classification_images(SPEC, 80, rng)
        state = _state_for(model, 6, rng)
        x_before = ds.x.copy()
        evaluator = BatchedEvaluator(model)
        first = evaluator.evaluate(state, ds)
        second = evaluator.evaluate(state, ds)
        np.testing.assert_array_equal(ds.x, x_before)
        np.testing.assert_array_equal(first, second)

    def test_unsupported_model_raises(self):
        model = Sequential(Linear(16, 4), Dropout(0.5))
        with pytest.raises(UnsupportedLayerError):
            BatchedEvaluator(model)

    def test_shape_and_chunk_validation(self):
        model = small_mlp(16, 4, hidden=8)
        with pytest.raises(TypeError, match="node_chunk"):
            BatchedEvaluator(model, node_chunk=1)  # the byte budget chunks
        with pytest.raises(ValueError, match="state matrix"):
            BatchedEvaluator(model).evaluate(
                np.zeros((2, 3)), None
            )


class TestPerNodeAccuracyModes:
    """``per_node_accuracy`` is the stacked evaluator's: a model without
    a batched mirror is refused, as the engines refuse it; no keyword
    chooses."""

    def _setup(self):
        rng = np.random.default_rng(4)
        model = small_mlp(16, 4, hidden=8, rng=rng)
        ds, _ = make_classification_images(SPEC, 80, rng)
        return model, _state_for(model, 8, rng), ds

    def test_auto_equals_serial(self):
        model, state, ds = self._setup()
        np.testing.assert_array_equal(
            _serial_accuracies(model, state, ds),
            per_node_accuracy(model, state, ds),
        )

    def test_unsupported_model_is_refused_as_the_engines_refuse_it(self):
        rng = np.random.default_rng(4)
        model = Sequential(Flatten(), Linear(16, 4, rng=rng), Dropout(0.0))
        ds, _ = make_classification_images(SPEC, 40, rng)
        state = _state_for(model, 4, rng)
        with pytest.raises(UnsupportedLayerError):
            BatchedEvaluator(model)
        with pytest.raises(UnsupportedLayerError):
            per_node_accuracy(model, state, ds)

    def test_bad_mode_rejected(self):
        model, state, ds = self._setup()
        with pytest.raises(TypeError, match="eval_mode"):
            per_node_accuracy(model, state, ds, eval_mode="serial")


N = 12


def _engine(*, node_by_node=False, sample=None, rounds=8):
    """A 12-node engine; ``node_by_node`` gives it the oracle's per-node
    evaluator, so the evaluator is the only thing that differs."""
    cfg = EngineConfig(local_steps=2, learning_rate=0.2, total_rounds=rounds,
                       eval_every=2, eval_node_sample=sample)
    engine = build_engine(
        SPEC, N, cfg, lambda rng: small_mlp(16, 4, hidden=8, rng=rng),
        seed=11, num_train=25 * N, num_test=64, batch_size=8, topology="ring",
    )
    if node_by_node:
        engine.local_trainer.evaluator = oracles.NodeByNodeEvaluator(engine.model)
    return engine


def _assert_history_equal(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb or (
            np.isnan(ra.train_loss) and np.isnan(rb.train_loss)
            and dataclasses.replace(ra, train_loss=0.0)
            == dataclasses.replace(rb, train_loss=0.0)
        )


class TestEngineEvalModes:
    """The engine-level gate: serial and batched evaluation produce the
    same RunHistory, including sampled evaluation (the eval rng stream
    must be consumed identically) and failure-masked rounds."""

    def test_forced_batched_equals_serial(self):
        h_s = _engine(node_by_node=True).run(DPSGD(N))
        h_b = _engine().run(DPSGD(N))
        _assert_history_equal(h_s, h_b)

    def test_eval_node_sample_rounds_equal(self):
        h_s = _engine(node_by_node=True, sample=4).run(DPSGD(N))
        h_b = _engine(sample=4).run(DPSGD(N))
        _assert_history_equal(h_s, h_b)

    def test_failure_masked_rounds_equal(self):
        from repro.simulation.failures import CrashWindow

        def run(node_by_node):
            eng = _engine(node_by_node=node_by_node, sample=5)
            eng.failure_model = CrashWindow(N, [1, 4, 6], start=2, end=6)
            return eng.run(DPSGD(N))

        _assert_history_equal(run(True), run(False))

    def test_auto_follows_vectorized(self):
        """The engine's evaluator is stacked, as its training is; only
        the oracle's serial loops evaluate node by node."""
        assert isinstance(_engine().local_trainer.evaluator, BatchedEvaluator)
        assert isinstance(oracles.serial(_engine()).local_trainer.evaluator,
                          oracles.NodeByNodeEvaluator)

    def test_bad_eval_mode_rejected(self):
        with pytest.raises(TypeError, match="eval_mode"):
            EngineConfig(local_steps=1, learning_rate=0.1, total_rounds=1,
                         eval_mode="batched")

    def test_global_average_accuracy_unchanged(self):
        """The consensus model is one row through the stacked evaluator,
        whichever evaluator the rounds use, and scores what the serial
        forward scores."""
        a = _engine(node_by_node=True)
        b = _engine()
        a.run(DPSGD(N)), b.run(DPSGD(N))
        assert a.global_average_accuracy() == b.global_average_accuracy()
        assert b.global_average_accuracy() == evaluate_vector(
            b.model, b.state.mean(axis=0), b.test_set
        )


class TestEvalModeStaysDeleted:
    """The engines' evaluator is always the stacked one, and no keyword,
    config field or factory chooses another."""

    def test_no_eval_mode_keyword_anywhere(self, tiny_preset):
        from repro.experiments import build_run, prepare
        from repro.scenarios import compile_run, get_scenario

        prepared = prepare(tiny_preset, 3, seed=0)
        for algorithm in ("skiptrain", "async-skiptrain"):
            with pytest.raises(TypeError, match="eval_mode"):
                build_run(prepared, algorithm, eval_mode="batched")
        with pytest.raises(TypeError, match="eval_mode"):
            compile_run(get_scenario("churn-async"), eval_mode="batched")

    def test_async_engine_takes_no_eval_mode(self):
        from repro.simulation import AsyncGossipEngine

        engine = _engine()
        with pytest.raises(TypeError, match="eval_mode"):
            AsyncGossipEngine(
                engine.model, engine.nodes, engine.mixing, engine.config,
                engine.test_set, rng=np.random.default_rng(0),
                eval_mode="batched",
            )

    def test_make_evaluator_is_not_importable(self):
        with pytest.raises(ImportError):
            from repro.nn.batched import make_evaluator  # noqa: F401
