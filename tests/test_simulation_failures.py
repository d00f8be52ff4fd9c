"""Failure-injection tests: masked mixing invariants and engine
integration under churn (the engine masks a static matrix itself)."""

import numpy as np
import pytest

from repro.core import DPSGD
from repro.simulation import (
    CrashWindow,
    IndependentCrashes,
    NoFailures,
    masked_mixing,
)
from repro.simulation.engine import MaskedMixing
from repro.topology import (
    is_doubly_stochastic,
    is_symmetric,
    metropolis_hastings_weights,
    regular_neighbors,
    ring_neighbors,
)


class TestFailureModels:
    def test_no_failures(self):
        model = NoFailures(5)
        assert model.alive(1).all()
        assert model.alive(99).all()

    def test_independent_crashes_consistent_within_a_round(self):
        model = IndependentCrashes(20, 0.3, seed=0)
        a = model.alive(7).copy()
        model.alive(8)
        np.testing.assert_array_equal(model.alive(7), a)
        np.testing.assert_array_equal(model.alive(7), a)

    def test_independent_crash_rate(self):
        model = IndependentCrashes(50, 0.3, seed=1)
        rates = [1.0 - model.alive(t).mean() for t in range(1, 101)]
        assert np.mean(rates) == pytest.approx(0.3, abs=0.05)

    def test_crash_window(self):
        model = CrashWindow(6, [1, 4], start=3, end=5)
        assert model.alive(2).all()
        np.testing.assert_array_equal(model.alive(4),
                                      [True, False, True, True, False, True])
        assert model.alive(6).all()

    def test_independent_crashes_pure_in_seed_and_round(self):
        """Round t's mask is a function of (seed, t) alone: a fresh
        instance queried in reverse order returns the same masks, and
        it holds one round's mask, not a memo of every round."""
        forward = IndependentCrashes(10, 0.3, seed=2)
        want = [forward.alive(t).copy() for t in range(1, 201)]
        backward = IndependentCrashes(10, 0.3, seed=2)
        got = [backward.alive(t).copy() for t in range(200, 0, -1)][::-1]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert not all(np.array_equal(want[0], m) for m in want[1:])
        other = IndependentCrashes(10, 0.3, seed=3)
        assert any(not np.array_equal(other.alive(t), want[t - 1])
                   for t in range(1, 201))

    def test_validation(self):
        with pytest.raises(ValueError):
            IndependentCrashes(5, 1.0, seed=0)
        with pytest.raises(ValueError):
            CrashWindow(5, [9], 1, 2)
        with pytest.raises(ValueError):
            CrashWindow(5, [0], 3, 2)


class TestMaskedMixing:
    def test_all_alive_is_plain_mh(self):
        g = regular_neighbors(10, 3, seed=0)
        w = masked_mixing(g, np.ones(10, dtype=bool))
        expected = metropolis_hastings_weights(g)
        np.testing.assert_array_equal(w.toarray(), expected.toarray())

    def test_dead_nodes_frozen(self, rng):
        g = regular_neighbors(10, 3, seed=0)
        alive = np.ones(10, dtype=bool)
        alive[[2, 7]] = False
        w = masked_mixing(g, alive)
        x = rng.normal(size=(10, 4))
        y = w @ x
        np.testing.assert_array_equal(y[2], x[2])
        np.testing.assert_array_equal(y[7], x[7])

    def test_remains_symmetric_doubly_stochastic(self, rng):
        g = regular_neighbors(12, 4, seed=1)
        for _ in range(5):
            alive = rng.random(12) > 0.3
            w = masked_mixing(g, alive)
            assert is_symmetric(w)
            assert is_doubly_stochastic(w)

    def test_cache_used(self):
        """The engine's memo hands back one matrix per (matrix, mask)."""
        w = metropolis_hastings_weights(ring_neighbors(6))
        masks = MaskedMixing()
        alive = np.array([True] * 5 + [False])
        assert masks(w, alive) is masks(w, alive.copy())
        other = metropolis_hastings_weights(ring_neighbors(6))
        assert masks(other, alive) is not masks(w, alive)
        assert len(masks._masks) == 2

    def test_mask_size_mismatch(self):
        with pytest.raises(ValueError):
            masked_mixing(ring_neighbors(5), np.ones(4, dtype=bool))


class TestEngineUnderChurn:
    def make_engine(self, failure_model, graph, seed=0):
        from repro.data import make_classification_images, shard_partition
        from repro.data.synthetic import SyntheticSpec
        from repro.energy import CIFAR10_WORKLOAD, EnergyMeter, build_trace
        from repro.nn import small_mlp
        from repro.simulation import (
            EngineConfig, RngFactory, SimulationEngine, build_nodes,
        )

        n = graph.n_nodes
        rngs = RngFactory(seed)
        spec = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                             noise_std=1.0, prototype_resolution=2)
        train, protos = make_classification_images(spec, 50 * n,
                                                   rngs.stream("data"))
        test, _ = make_classification_images(spec, 100, rngs.stream("test"),
                                             prototypes=protos)
        parts = shard_partition(train.y, n, rng=rngs.stream("p"))
        nodes = build_nodes(train, parts, 8, rngs)
        cfg = EngineConfig(local_steps=2, learning_rate=0.2,
                           total_rounds=16, eval_every=16)
        model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
        meter = EnergyMeter(build_trace(n, CIFAR10_WORKLOAD, 0.1))
        return SimulationEngine(
            model, nodes, metropolis_hastings_weights(graph),
            cfg, test, meter=meter, failure_model=failure_model,
        )

    def test_dead_nodes_pay_no_energy(self):
        g = regular_neighbors(8, 3, seed=0)
        model = CrashWindow(8, [0], start=1, end=16)
        eng = self.make_engine(model, g)
        eng.run(DPSGD(8))
        assert eng.meter.train_rounds[0] == 0
        assert eng.meter.train_wh[0] == 0.0
        assert eng.meter.comm_wh[0] == 0.0
        assert eng.meter.train_rounds[1] == 16

    def test_training_survives_moderate_churn(self):
        g = regular_neighbors(8, 4, seed=0)
        model = IndependentCrashes(8, 0.2, seed=5)
        eng = self.make_engine(model, g)
        h = eng.run(DPSGD(8))
        assert h.final_accuracy() > 0.4  # chance = 0.25

    def test_churn_run_deterministic(self):
        g = regular_neighbors(8, 4, seed=0)
        accs = []
        for _ in range(2):
            model = IndependentCrashes(8, 0.2, seed=5)
            eng = self.make_engine(model, g)
            accs.append(eng.run(DPSGD(8)).final_accuracy())
        assert accs[0] == accs[1]


class TestFailureProviderBounds:
    def test_mask_memo_bounded_under_random_crashes(self):
        """A random failure model draws a fresh alive mask nearly every
        round; the engine keeps at most MASK_MEMO masked matrices."""
        from repro.simulation.engine import MASK_MEMO

        model = IndependentCrashes(8, 0.4, seed=0)
        eng = TestEngineUnderChurn().make_engine(model, regular_neighbors(8, 3, seed=0))
        for t in range(1, 300):
            eng._mixing_for_round(t)
        assert len(eng._masked._masks) == MASK_MEMO


class TestEngineMasking:
    def test_masked_static_matrix_is_masked_graph(self, rng):
        """Masking a Metropolis–Hastings matrix through its off-diagonal
        graph gives the bytes masking the graph itself gives."""
        g = regular_neighbors(12, 4, seed=1)
        w = metropolis_hastings_weights(g)
        masks = MaskedMixing()
        for _ in range(5):
            alive = rng.random(12) > 0.3
            got, want = masks(w, alive), masked_mixing(g, alive)
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                np.testing.assert_array_equal(a, b)
