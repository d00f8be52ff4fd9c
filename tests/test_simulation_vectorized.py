"""Stacked-engine equivalence tests.

The contract under test (see ``repro.simulation.engine``): with plain
SGD the engine's stacked path produces a ``state`` matrix and
``RunHistory`` **bit-identical** to the serial oracle loop
(``tests/oracles.py``) — same RNG batch streams, same arithmetic,
reordered from per-node loops into stacked kernels — over either state
backend, and however the trained rows are split into blocks.
"""

import numpy as np
import pytest
from oracles import serial as on_serial_loops

from repro.core import DPSGD, RoundSchedule, SkipTrain
from repro.core.base import Algorithm
from repro.data.synthetic import SyntheticSpec
from repro.nn import small_cnn, small_mlp
from repro.nn.batched import UnsupportedLayerError
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Sequential
from repro.simulation import EngineConfig, build_engine

N = 16
SPEC = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                     noise_std=1.0, jitter_std=0.3, prototype_resolution=2)


def _mlp(rng):
    return small_mlp(16, 4, hidden=8, rng=rng)


def _cnn(rng):
    return small_cnn(1, 4, 4, channels=4, rng=rng)


def _cfg(total_rounds=8, weight_decay=0.0, state_backend="memory"):
    return EngineConfig(local_steps=2, learning_rate=0.2,
                        total_rounds=total_rounds, eval_every=4,
                        weight_decay=weight_decay,
                        state_backend=state_backend)


def _engine(*, seed=7, model_factory=_mlp, topology="ring", n_nodes=N,
            **cfg_kw):
    return build_engine(
        SPEC, n_nodes, _cfg(**cfg_kw), model_factory,
        seed=seed, num_train=25 * n_nodes, num_test=64, batch_size=8,
        topology=topology,
    )


def _oracle(**kwargs):
    """The same engine on the serial oracle loop."""
    return on_serial_loops(_engine(**kwargs))


def _assert_history_equal(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.round == rb.round
        assert ra.mean_accuracy == rb.mean_accuracy
        assert ra.std_accuracy == rb.std_accuracy
        assert ra.consensus == rb.consensus
        assert ra.cumulative_energy_wh == rb.cumulative_energy_wh
        assert ra.trained_nodes == rb.trained_nodes
        assert ra.is_training_round == rb.is_training_round
        assert (ra.train_loss == rb.train_loss) or (
            np.isnan(ra.train_loss) and np.isnan(rb.train_loss)
        )


class RandomMask(Algorithm):
    """Seeded random participation: exercises varying block sizes,
    including empty and full rounds."""

    name = "random-mask"

    def __init__(self, n_nodes, seed, p=0.5):
        super().__init__(n_nodes)
        self.rng = np.random.default_rng(seed)
        self.p = p

    def train_mask(self, t):
        return self.rng.random(self.n_nodes) < self.p


class TestSerialVectorizedEquivalence:
    """The ISSUE's strict-equality gate: seeded 16-node ring, plain SGD."""

    @pytest.mark.parametrize("algo_factory", [
        lambda: DPSGD(N),
        lambda: SkipTrain(N, RoundSchedule(2, 1)),
    ], ids=["dpsgd", "skiptrain"])
    def test_state_and_history_bitwise_equal(self, algo_factory):
        serial = _oracle()
        h_serial = serial.run(algo_factory())
        product = _engine()
        h_product = product.run(algo_factory())
        np.testing.assert_array_equal(serial.state, product.state)
        _assert_history_equal(h_serial, h_product)

    def test_cnn_model_bitwise_equal(self):
        serial = _oracle(model_factory=_cnn)
        h_s = serial.run(DPSGD(N))
        product = _engine(model_factory=_cnn)
        h_v = product.run(DPSGD(N))
        np.testing.assert_array_equal(serial.state, product.state)
        _assert_history_equal(h_s, h_v)

    def test_weight_decay_bitwise_equal(self):
        serial = _oracle(weight_decay=0.01)
        serial.run(DPSGD(N))
        product = _engine(weight_decay=0.01)
        product.run(DPSGD(N))
        np.testing.assert_array_equal(serial.state, product.state)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("topology", ["ring", "regular"])
    def test_property_random_masks_and_topologies(self, seed, topology):
        """Property-style sweep: random participation masks over both
        topology families must stay bit-identical."""
        serial = _oracle(seed=seed, topology=topology, total_rounds=6)
        h_s = serial.run(RandomMask(N, seed=seed))
        product = _engine(seed=seed, topology=topology, total_rounds=6)
        h_v = product.run(RandomMask(N, seed=seed))
        np.testing.assert_array_equal(serial.state, product.state)
        _assert_history_equal(h_s, h_v)


def _drawn_round(engine):
    """One round's drawn batches for every node of ``engine``."""
    ids = np.arange(engine.n_nodes)
    return (ids, *engine.nodes.draw(ids, engine.config.local_steps))


class TestParallelBlockEquivalence:
    """The stacked trainer trains a block of nodes side by side; the
    block's layout, size and backing never change a row's bits."""

    def test_vectorized_parallel_matches_serial(self):
        """The stacked block trained in place over an mmap-backed state
        matrix still matches the serial engine over memory."""
        serial = _oracle()
        h_s = serial.run(DPSGD(N))
        par = _engine(state_backend="mmap")
        try:
            h_p = par.run(DPSGD(N))
            np.testing.assert_array_equal(serial.state, par.state)
        finally:
            par.close()
        _assert_history_equal(h_s, h_p)

    def test_block_size_does_not_change_results(self):
        """Rows are independent: one stacked call over all nodes equals
        the same rows trained in blocks of 2 or 5, state and losses."""
        eng = _engine()
        ids, idx, k = _drawn_round(eng)
        x, y = eng.nodes.x, eng.nodes.y
        stacked = eng.local_trainer.stacked
        whole = eng.state.copy()
        want = stacked.train_rows(whole, ids, x, y, idx, k)
        for size in (2, 5):
            blocks = eng.state.copy()
            got = np.concatenate([
                stacked.train_rows(blocks, ids[lo:lo + size], x, y,
                                   idx[lo:lo + size], k[lo:lo + size])
                for lo in range(0, ids.size, size)
            ])
            np.testing.assert_array_equal(blocks, whole)
            np.testing.assert_array_equal(got, want)

    def test_serial_worker_blocks_match_too(self):
        """The serial per-row loop and the stacked trainer, fed the same
        drawn batches, give every row and every loss the same bits."""
        serial, product = _oracle(), _engine()
        ids, idx, k = _drawn_round(serial)
        rows = serial.state.copy()
        loop = [serial.local_trainer.train_row(rows[i], idx[i, :, : k[i]])
                for i in ids]
        block = product.state.copy()
        stacked = product.local_trainer.stacked.train_rows(
            block, ids, product.nodes.x, product.nodes.y, idx, k
        )
        np.testing.assert_array_equal(rows, block)
        np.testing.assert_array_equal(np.array(loop), stacked)

    def test_failure_model_respected_by_parallel_engine(self):
        """A failure model masks the stacked trainer's block exactly as
        it masks the serial loop."""
        from repro.simulation.failures import CrashWindow

        def with_failures(build):
            eng = build()
            eng.failure_model = CrashWindow(N, [0, 3, 5], start=2, end=6)
            return eng

        serial = with_failures(_oracle)
        h_s = serial.run(DPSGD(N))
        par = with_failures(_engine)
        h_p = par.run(DPSGD(N))
        np.testing.assert_array_equal(serial.state, par.state)
        _assert_history_equal(h_s, h_p)


class NoTraining(Algorithm):
    name = "no-training"

    def train_mask(self, t):
        return np.zeros(self.n_nodes, dtype=bool)


class TestMaskEmptyRegression:
    """No node trains in a round: every engine flavor must record the
    same sentinel values instead of diverging (losses == [] quirk)."""

    def _check(self, history):
        assert len(history.records) > 0
        for r in history.records:
            assert np.isnan(r.train_loss)
            assert r.trained_nodes == 0
            assert not r.is_training_round

    def test_serial(self):
        eng = _oracle(total_rounds=4)
        self._check(eng.run(NoTraining(N)))

    def test_vectorized(self):
        eng = _engine(total_rounds=4)
        self._check(eng.run(NoTraining(N)))

    def test_parallel(self):
        eng = _engine(total_rounds=4, state_backend="mmap")
        try:
            self._check(eng.run(NoTraining(N)))
        finally:
            eng.close()

    def test_states_identical_across_flavors(self):
        serial = _oracle(total_rounds=4)
        serial.run(NoTraining(N))
        product = _engine(total_rounds=4)
        product.run(NoTraining(N))
        np.testing.assert_array_equal(serial.state, product.state)


class TestConfigValidation:
    # the engines train with plain SGD: momentum is no config field at
    # all, for either engine flavor
    def test_momentum_rejected_when_vectorized(self):
        with pytest.raises(TypeError, match="momentum"):
            EngineConfig(local_steps=1, learning_rate=0.1, total_rounds=1,
                         momentum=0.9)

    def test_momentum_bounds_audited(self):
        with pytest.raises(TypeError, match="momentum"):
            EngineConfig(local_steps=1, learning_rate=0.1, total_rounds=1,
                         momentum=1.0)

    def test_negative_weight_decay_audited(self):
        with pytest.raises(ValueError):
            EngineConfig(local_steps=1, learning_rate=0.1, total_rounds=1,
                         weight_decay=-0.1)

    def test_nonpositive_eval_node_sample_audited(self):
        with pytest.raises(ValueError):
            EngineConfig(local_steps=1, learning_rate=0.1, total_rounds=1,
                         eval_node_sample=0)

    def test_unsupported_layer_fails_at_construction(self):
        def dropout_model(rng):
            return Sequential(Linear(16, 4, rng=rng), Dropout(0.5))

        with pytest.raises(UnsupportedLayerError):
            _engine(model_factory=dropout_model)
