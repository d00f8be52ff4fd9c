"""Simulation-engine tests: invariants the synchronous round model must
satisfy regardless of algorithm or data."""

import numpy as np
import pytest

from repro.core import DPSGD, AllReduceDPSGD, RoundSchedule, SkipTrain
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD, EnergyMeter, build_trace
from repro.nn import small_mlp
from repro.scenarios import ChurnSchedule
from repro.simulation import (
    CrashWindow,
    EngineConfig,
    NoFailures,
    RngFactory,
    SimulationEngine,
    build_nodes,
    consensus_distance,
)
from repro.topology import metropolis_hastings_weights, regular_neighbors

N = 8
SPEC = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                     noise_std=1.0, jitter_std=0.3, prototype_resolution=2)


def make_engine(seed=0, total_rounds=12, with_meter=True, eval_every=4,
                lr=0.2, local_steps=2, failure_model=None, churn=None):
    rngs = RngFactory(seed)
    train, protos = make_classification_images(SPEC, 400, rngs.stream("data"))
    test, _ = make_classification_images(SPEC, 100, rngs.stream("test"),
                                         prototypes=protos)
    parts = shard_partition(train.y, N, rng=rngs.stream("partition"))
    nodes = build_nodes(train, parts, 8, rngs)
    w = metropolis_hastings_weights(regular_neighbors(N, 3, seed=0))
    cfg = EngineConfig(local_steps=local_steps, learning_rate=lr,
                       total_rounds=total_rounds, eval_every=eval_every)
    model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
    meter = EnergyMeter(build_trace(N, CIFAR10_WORKLOAD, 0.1)) if with_meter else None
    return SimulationEngine(model, nodes, w, cfg, test, meter=meter,
                            eval_rng=rngs.stream("eval"),
                            failure_model=failure_model, churn=churn)


class TestEngineBasics:
    def test_identical_initialization(self):
        eng = make_engine()
        assert np.all(eng.state == eng.state[0])

    def test_run_produces_history(self):
        eng = make_engine()
        h = eng.run(DPSGD(N))
        assert len(h.records) == 3  # rounds 4, 8, 12
        assert h.records[-1].round == 12
        assert 0.0 <= h.final_accuracy() <= 1.0

    def test_deterministic_across_runs(self):
        h1 = make_engine(seed=5).run(DPSGD(N))
        h2 = make_engine(seed=5).run(DPSGD(N))
        np.testing.assert_array_equal(h1.mean_accuracy, h2.mean_accuracy)
        np.testing.assert_array_equal(h1.consensus, h2.consensus)

    def test_different_seeds_differ(self):
        h1 = make_engine(seed=1).run(DPSGD(N))
        h2 = make_engine(seed=2).run(DPSGD(N))
        assert not np.allclose(h1.mean_accuracy, h2.mean_accuracy)

    def test_node_count_mismatch_rejected(self):
        eng = make_engine()
        with pytest.raises(ValueError):
            eng.run(DPSGD(N + 1))

    @pytest.mark.parametrize("failure_model", [
        NoFailures(1), NoFailures(N + 1), CrashWindow(8 * N, [0], 1, 2),
    ], ids=["one", "one-more", "larger-window"])
    def test_failure_model_of_another_node_count_rejected(self, failure_model):
        """Refused at construction, as the async engine refuses it — not
        in round 1 with a mask-shape or broadcast error."""
        with pytest.raises(ValueError, match="failure model node count"):
            make_engine(failure_model=failure_model)
        make_engine(failure_model=NoFailures(N))


class TestAggregationInvariants:
    def test_mixing_preserves_global_mean(self):
        """Doubly-stochastic W keeps the average model fixed — the core
        conservation law of D-PSGD."""
        eng = make_engine()
        eng.state = np.random.default_rng(0).normal(size=eng.state.shape)
        before = eng.state.mean(axis=0).copy()
        eng._aggregate(use_allreduce=False)
        np.testing.assert_allclose(eng.state.mean(axis=0), before, atol=1e-12)

    def test_mixing_contracts_consensus(self):
        eng = make_engine()
        eng.state = np.random.default_rng(0).normal(size=eng.state.shape)
        before = consensus_distance(eng.state)
        eng._aggregate(use_allreduce=False)
        assert consensus_distance(eng.state) < before

    def test_allreduce_reaches_exact_consensus(self):
        eng = make_engine()
        eng.state = np.random.default_rng(0).normal(size=eng.state.shape)
        mean = eng.state.mean(axis=0).copy()
        eng._aggregate(use_allreduce=True)
        assert consensus_distance(eng.state) == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(eng.state[0], mean)

    def test_sync_only_run_converges_to_initial_consensus(self):
        """With no training at all, repeated mixing is pure consensus:
        the state converges to the (identical) initial model."""
        eng = make_engine(total_rounds=30)
        init = eng.state[0].copy()

        class SyncOnly(DPSGD):
            def train_mask(self, t):
                return np.zeros(self.n_nodes, dtype=bool)

        eng.run(SyncOnly(N))
        np.testing.assert_allclose(eng.state, np.tile(init, (N, 1)), atol=1e-10)


class TestEnergyIntegration:
    def test_dpsgd_energy_matches_trace(self):
        eng = make_engine(total_rounds=10)
        eng.run(DPSGD(N))
        expected = eng.meter.trace.train_energy_wh.sum() * 10
        assert eng.meter.total_train_wh == pytest.approx(expected)

    def test_skiptrain_half_energy(self):
        e1 = make_engine(total_rounds=16)
        e1.run(DPSGD(N))
        e2 = make_engine(total_rounds=16)
        e2.run(SkipTrain(N, RoundSchedule(2, 2)))
        ratio = e1.meter.total_train_wh / e2.meter.total_train_wh
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_energy_history_in_records(self):
        eng = make_engine()
        h = eng.run(DPSGD(N))
        energies = h.energy_wh
        assert (np.diff(energies) > 0).all()


class TestEvalScheduling:
    def test_skiptrain_evaluates_at_cycle_ends(self):
        eng = make_engine(total_rounds=24, eval_every=4)
        schedule = RoundSchedule(2, 2)
        h = eng.run(SkipTrain(N, schedule))
        for r in h.records:
            if r.round != 24:  # final round always allowed
                assert schedule.is_cycle_end(r.round)

    def test_dpsgd_evaluates_on_cadence(self):
        eng = make_engine(total_rounds=12, eval_every=4)
        h = eng.run(DPSGD(N))
        assert [r.round for r in h.records] == [4, 8, 12]

    def test_training_learns(self):
        """End-to-end sanity: accuracy beats chance after a short run."""
        eng = make_engine(total_rounds=20, eval_every=20, lr=0.3,
                          local_steps=3)
        h = eng.run(DPSGD(N))
        assert h.final_accuracy() > 0.4  # chance = 0.25


class TestRunHistory:
    def test_accuracy_at_energy(self):
        eng = make_engine(total_rounds=12)
        h = eng.run(DPSGD(N))
        total = h.records[-1].cumulative_energy_wh
        assert h.accuracy_at_energy(total) == h.records[-1].mean_accuracy
        first = h.records[0]
        assert h.accuracy_at_energy(first.cumulative_energy_wh) == first.mean_accuracy
        with pytest.raises(ValueError):
            h.accuracy_at_energy(first.cumulative_energy_wh / 2)

    def test_best_and_final(self):
        eng = make_engine(total_rounds=12)
        h = eng.run(DPSGD(N))
        assert h.best_accuracy() >= h.final_accuracy()

    def test_empty_history_raises(self):
        from repro.simulation.metrics import RunHistory

        with pytest.raises(ValueError):
            RunHistory("x").final_accuracy()


class TestIneligibleNodesStayOutOfGossip:
    """The engine masks the round's matrix itself, so a static
    Metropolis–Hastings matrix composes with failures and churn."""

    def test_crashed_node_row_frozen_under_static_matrix(self):
        """Mirrors the async engine's silent-window test: a node down
        for the whole run neither trains nor mixes, so its row stays
        the shared initialization, bit for bit."""
        eng = make_engine(failure_model=CrashWindow(N, [2], start=1, end=10_000))
        init_row = eng.state[2].copy()
        eng.run(DPSGD(N))
        np.testing.assert_array_equal(eng.state[2], init_row)
        assert eng.meter.train_rounds[2] == 0
        assert not np.array_equal(eng.state[0], init_row)

    def test_crashed_node_row_frozen_under_allreduce(self):
        """Exact all-reduce averages the round's eligible rows only: a
        node crashed in rounds 2-5 keeps its row through them, as under
        gossip, while the rest agree exactly; it rejoins the average at
        round 6."""
        eng = make_engine(failure_model=CrashWindow(N, [0], start=2, end=5))
        rows = {}

        def hook(engine, at, history, last_eval):
            rows[at] = engine.state.copy()

        eng.run(AllReduceDPSGD(N), hook=hook)
        for t in range(2, 6):
            np.testing.assert_array_equal(rows[t][0], rows[1][0])
            assert np.all(rows[t][1:] == rows[t][1])
            assert not np.array_equal(rows[t][1], rows[1][1])
        assert not np.array_equal(rows[6][0], rows[5][0])
        assert np.all(rows[6] == rows[6][0])
        assert eng.meter.train_rounds[0] == eng.meter.train_rounds[1] - 4

    def test_churn_over_static_matrix_freezes_departed_rows(self):
        churn = ChurnSchedule(N, [(5, 1, "leave")], initially_absent=(3,))
        eng = make_engine(churn=churn)
        init_row = eng.state[3].copy()
        at_leave = {}

        def hook(engine, at, history, last_eval):
            if at == 4:
                at_leave["row"] = engine.state[1].copy()

        eng.run(DPSGD(N), hook=hook)
        np.testing.assert_array_equal(eng.state[1], at_leave["row"])
        np.testing.assert_array_equal(eng.state[3], init_row)
        assert not np.array_equal(eng.state[0], init_row)
