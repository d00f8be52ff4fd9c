"""Asynchronous gossip engine tests (§5.3 extension)."""

import types

import numpy as np
import oracles
import pytest

from repro.core import RoundSchedule
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD, build_trace
from repro.nn import small_mlp
from repro.simulation import (
    AsyncDPSGD,
    AsyncGossipEngine,
    AsyncSkipTrain,
    AsyncSkipTrainConstrained,
    CrashWindow,
    EngineConfig,
    RngFactory,
    build_nodes,
)
from repro.topology import metropolis_hastings_weights, regular_neighbors

N = 8
SPEC = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                     noise_std=1.0, jitter_std=0.3, prototype_resolution=2)


def make_engine(seed=0, with_trace=True, n=N, eval_node_sample=None,
                failure_model=None, enforce_budgets=False, degree=3,
                battery_fraction=0.1, activations_per_node=24,
                eval_every=None):
    rngs = RngFactory(seed)
    train, protos = make_classification_images(SPEC, 50 * n,
                                               rngs.stream("data"))
    test, _ = make_classification_images(SPEC, 100, rngs.stream("test"),
                                         prototypes=protos)
    parts = shard_partition(train.y, n, rng=rngs.stream("partition"))
    nodes = build_nodes(train, parts, 8, rngs)
    graph = regular_neighbors(n, degree, seed=0)
    model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
    trace = (build_trace(n, CIFAR10_WORKLOAD, battery_fraction)
             if with_trace else None)
    cadence = {} if eval_every is None else {"eval_every": eval_every}
    config = EngineConfig(local_steps=2, learning_rate=0.2,
                          total_rounds=activations_per_node,
                          eval_node_sample=eval_node_sample, **cadence)
    return AsyncGossipEngine(
        model, nodes, metropolis_hastings_weights(graph), config, test,
        rng=rngs.stream("events"), trace=trace,
        eval_rng=rngs.stream("async-eval"),
        failure_model=failure_model, enforce_budgets=enforce_budgets,
    )


class TestAsyncEngine:
    def test_runs_and_learns(self):
        eng = make_engine(activations_per_node=24)
        h = eng.run(AsyncDPSGD())
        assert h.final_accuracy() > 0.4  # chance = 0.25
        assert len(h.records) >= 1

    def test_activation_counts_balanced(self):
        eng = make_engine(activations_per_node=30)
        eng.run(AsyncDPSGD())
        counts = eng.activation_counts
        assert counts.sum() == N * 30
        # Poisson clocks at equal rate: roughly equal activation shares
        assert counts.min() > 0.4 * counts.mean()

    def test_gossip_preserves_global_mean(self, rng):
        eng = make_engine()
        eng.state = rng.normal(size=eng.state.shape)
        mean = eng.state.mean(axis=0).copy()
        for i in range(N):
            oracles.gossip(eng, i)
        np.testing.assert_allclose(eng.state.mean(axis=0), mean, atol=1e-12)

    def test_deterministic(self):
        h1 = make_engine(seed=4, activations_per_node=16).run(AsyncDPSGD())
        h2 = make_engine(seed=4, activations_per_node=16).run(AsyncDPSGD())
        assert h1.final_accuracy() == h2.final_accuracy()

    def test_event_times_increase(self):
        eng = make_engine(activations_per_node=20, eval_every=5)
        h = eng.run(AsyncDPSGD())
        times = [r.time for r in h.records]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="total_rounds"):
            make_engine(activations_per_node=0)
        with pytest.raises(ValueError, match="eval_every"):
            make_engine(eval_every=0)


class TestAsyncPolicies:
    def test_async_skiptrain_halves_training(self):
        e1 = make_engine(seed=2, activations_per_node=32)
        e1.run(AsyncDPSGD())
        e2 = make_engine(seed=2, activations_per_node=32)
        e2.run(AsyncSkipTrain(RoundSchedule(2, 2)))
        ratio = e1.train_counts.sum() / e2.train_counts.sum()
        assert ratio == pytest.approx(2.0, rel=0.15)
        assert e1.train_energy_wh > e2.train_energy_wh

    def test_async_skiptrain_energy_tracks_counts(self):
        eng = make_engine(seed=3, activations_per_node=20)
        eng.run(AsyncSkipTrain(RoundSchedule(1, 1)))
        expected = (eng.train_counts * eng.trace.train_energy_wh).sum()
        assert eng.train_energy_wh == pytest.approx(expected)

    def test_constrained_respects_budgets(self):
        budgets = np.array([2, 3, 100, 0, 2, 3, 100, 0])
        policy = AsyncSkipTrainConstrained(
            RoundSchedule(1, 1), budgets, expected_activations=40,
            rng=np.random.default_rng(0),
        )
        eng = make_engine(seed=5, activations_per_node=40)
        eng.run(policy)
        assert (eng.train_counts <= budgets).all()
        assert eng.train_counts[3] == 0 and eng.train_counts[7] == 0

    def test_constrained_validation(self):
        with pytest.raises(ValueError):
            AsyncSkipTrainConstrained(
                RoundSchedule(1, 1), np.array([-1]), 10,
                np.random.default_rng(0),
            )
        with pytest.raises(ValueError):
            AsyncSkipTrain(RoundSchedule(0, 2))

    def test_async_matches_sync_shape(self):
        """The async analogue preserves the paper's headline shape:
        SkipTrain-style skipping costs little accuracy at half the
        training energy."""
        e_dpsgd = make_engine(seed=6, activations_per_node=32)
        h_dpsgd = e_dpsgd.run(AsyncDPSGD())
        e_skip = make_engine(seed=6, activations_per_node=32)
        h_skip = e_skip.run(AsyncSkipTrain(RoundSchedule(2, 2)))
        assert e_skip.train_energy_wh < 0.6 * e_dpsgd.train_energy_wh
        assert h_skip.final_accuracy() > h_dpsgd.final_accuracy() - 0.1


class TestEvalRngIsolation:
    """Regression: evaluation node sampling used to draw from the event
    rng, so changing ``eval_every`` silently changed the trajectory."""

    def test_trajectory_independent_of_eval_cadence(self):
        dense = make_engine(seed=9, eval_node_sample=4,
                            activations_per_node=16, eval_every=1)
        dense.run(AsyncDPSGD())
        sparse = make_engine(seed=9, eval_node_sample=4,
                             activations_per_node=16, eval_every=16)
        sparse.run(AsyncDPSGD())
        np.testing.assert_array_equal(dense.state, sparse.state)
        np.testing.assert_array_equal(dense.train_counts,
                                      sparse.train_counts)

    def test_eval_sample_size_does_not_change_trajectory(self):
        sampled = make_engine(seed=9, eval_node_sample=2,
                              activations_per_node=16, eval_every=1)
        sampled.run(AsyncDPSGD())
        full = make_engine(seed=9, eval_node_sample=None,
                           activations_per_node=16, eval_every=1)
        full.run(AsyncDPSGD())
        np.testing.assert_array_equal(sampled.state, full.state)

    def test_default_eval_rng_spawned_off_event_stream(self):
        rngs = RngFactory(3)
        eng = make_engine(seed=3)
        # explicit factory stream was passed; a spawned default also works
        eng2 = AsyncGossipEngine(
            eng.model, eng.nodes, eng.mixing,
            EngineConfig(local_steps=2, learning_rate=0.2, total_rounds=4),
            eng.test_set, rng=rngs.stream("events"),
        )
        assert eng2.eval_rng is not eng2.rng


class TestGossipInPlace:
    def test_bit_identical_to_allocating_average_at_n64(self):
        """The in-place hot path must match ``0.5 * (s_i + s_j)`` bit
        for bit — checked at n=64 over a full run."""

        def old_average(self, i, j):
            avg = 0.5 * (self.state[i] + self.state[j])
            self.state[i] = avg
            self.state[j] = avg

        fast = make_engine(seed=5, n=64, degree=4, activations_per_node=4)
        slow = make_engine(seed=5, n=64, degree=4, activations_per_node=4)
        slow._average = types.MethodType(old_average, slow)
        h_fast = fast.run(AsyncDPSGD())
        h_slow = slow.run(AsyncDPSGD())
        np.testing.assert_array_equal(fast.state, slow.state)
        assert h_fast.records == h_slow.records


class TestAsyncFailures:
    def test_dead_node_fully_silent_during_window(self):
        """A node down under CrashWindow never trains, never initiates,
        and is never chosen as a gossip partner — its state row stays
        frozen at the shared initialization."""
        window = CrashWindow(N, [2], start=1, end=10_000)
        eng = make_engine(seed=1, failure_model=window)
        init_row = eng.state[2].copy()
        eng.run(AsyncDPSGD())
        assert eng.activation_counts[2] == 0
        assert eng.train_counts[2] == 0
        # frozen row ⇒ no gossip touched it, as initiator or partner
        np.testing.assert_array_equal(eng.state[2], init_row)
        assert eng.activation_counts.sum() < N * 24
        assert (eng.train_counts[np.arange(N) != 2] > 0).all()

    def test_node_rejoins_after_window(self):
        """Unit-rate clocks: the failure window [start, end] covers
        simulated time [start-1, end), so a short window ends well
        before a 24-activation run does and the node rejoins."""
        window = CrashWindow(N, [2], start=1, end=4)
        eng = make_engine(seed=1, failure_model=window)
        init_row = eng.state[2].copy()
        eng.run(AsyncDPSGD())
        assert eng.activation_counts[2] > 0
        assert not np.array_equal(eng.state[2], init_row)

    def test_whole_neighborhood_down_skips_gossip_only(self):
        """An alive node whose entire neighborhood is dead still trains
        but performs no averaging: no dead row moves."""
        eng_probe = make_engine(seed=1)
        nbrs_of_0 = set(int(j) for j in eng_probe._neighbors(1)[0])
        dead = sorted(nbrs_of_0)
        window = CrashWindow(N, dead, start=1, end=10_000)
        eng = make_engine(seed=1, failure_model=window,
                          activations_per_node=12)
        init = eng.state.copy()
        eng.run(AsyncDPSGD())
        for j in dead:
            np.testing.assert_array_equal(eng.state[j], init[j])
        assert eng.train_counts[0] > 0  # node 0 kept training

    def test_failure_model_node_count_validated(self):
        from repro.simulation import NoFailures

        with pytest.raises(ValueError, match="node count"):
            make_engine(failure_model=CrashWindow(N + 1, [0], 1, 2))
        with pytest.raises(ValueError, match="node count"):
            make_engine(failure_model=NoFailures(N - 1))


class TestBatteryDepletion:
    def test_nodes_stop_training_at_budget(self):
        # fraction chosen so τᵢ ≈ 8–20 rounds binds well below 64
        eng = make_engine(seed=2, enforce_budgets=True,
                          battery_fraction=0.003, activations_per_node=64)
        budgets = eng.trace.budget_rounds
        assert (budgets < 64).all()
        eng.run(AsyncDPSGD())
        np.testing.assert_array_equal(eng.train_counts, budgets)
        assert eng.train_counts.sum() < eng.activation_counts.sum()

    def test_depleted_node_keeps_gossiping(self):
        eng = make_engine(seed=2, enforce_budgets=True,
                          battery_fraction=0.003, activations_per_node=64)
        init = eng.state.copy()
        eng.run(AsyncDPSGD())
        # every node's row moved even after depletion (gossip continues)
        assert all(
            not np.array_equal(eng.state[i], init[i]) for i in range(N)
        )

    def test_enforce_budgets_requires_trace(self):
        with pytest.raises(ValueError, match="trace"):
            make_engine(with_trace=False, enforce_budgets=True)


class TestAsyncStateDict:
    def test_resume_bit_identical_from_any_event(self):
        """Snapshot at an arbitrary (non-eval) event boundary, restore
        into a fresh engine, continue: final state, counters, and
        records equal the uninterrupted run exactly. The snapshot comes
        from the serial oracle, whose hook fires after every event."""
        horizon = dict(eval_node_sample=4, activations_per_node=16,
                       eval_every=1)
        ref = make_engine(seed=7, **horizon)
        h_ref = ref.run(AsyncDPSGD())

        snap = {}

        class Stop(Exception):
            pass

        def snapshot(eng, event, history, last_eval):
            assert last_eval == event - event % eng.eval_every
            if event == 37:  # deliberately not on the eval cadence
                snap["sd"] = eng.state_dict()
                snap["records"] = list(history.records)
                raise Stop

        killed = oracles.serial(make_engine(seed=7, **horizon))
        with pytest.raises(Stop):
            killed.run(AsyncDPSGD(), hook=snapshot)

        fresh = make_engine(seed=7, **horizon)
        fresh.load_state_dict(snap["sd"])
        from repro.simulation.async_engine import AsyncHistory

        history = AsyncHistory(policy="async-D-PSGD",
                               records=snap["records"])
        h_res = fresh.run(AsyncDPSGD(), start=37, history=history)
        np.testing.assert_array_equal(ref.state, fresh.state)
        assert h_ref.records == h_res.records
        np.testing.assert_array_equal(ref.activation_counts,
                                      fresh.activation_counts)

    def test_state_dict_before_run_rejected(self):
        eng = make_engine()
        with pytest.raises(ValueError, match="event heap"):
            eng.state_dict()

    def test_load_rejects_shape_mismatch(self):
        eng = make_engine(seed=0, activations_per_node=2)
        eng.run(AsyncDPSGD())
        sd = eng.state_dict()
        sd["state"] = sd["state"][:, :-1]
        fresh = make_engine(seed=0)
        with pytest.raises(ValueError, match="shape"):
            fresh.load_state_dict(sd)

    @pytest.mark.parametrize("bad", ["rng", "eval_rng", "activation_counts",
                                     "train_counts", "queue_ids"])
    def test_refused_snapshot_leaves_engine_untouched(self, bad):
        """A snapshot with an unknown bit generator or a wrong-length
        array is refused before anything moves: state matrix, counters,
        batch streams and the event rng stay as built."""
        donor = make_engine(seed=0, activations_per_node=2)
        donor.run(AsyncDPSGD())
        sd = donor.state_dict()
        if bad.endswith("rng"):
            sd[bad] = {**sd[bad], "bit_generator": "NoSuchGenerator"}
        else:
            sd[bad] = sd[bad][:-1]
        victim, fresh = make_engine(seed=0), make_engine(seed=0)
        with pytest.raises(ValueError, match="bit generator|shape"):
            victim.load_state_dict(sd)
        np.testing.assert_array_equal(victim.state, fresh.state)
        assert not victim.activation_counts.any()
        assert not victim.train_counts.any()
        assert victim._queue is None
        for key, value in fresh.nodes.state_dict().items():
            np.testing.assert_array_equal(victim.nodes.state_dict()[key], value)
        assert victim.rng.random() == fresh.rng.random()
        assert victim.eval_rng.random() == fresh.eval_rng.random()

    def test_constrained_policy_state_roundtrip(self):
        budgets = np.array([2, 3, 100, 0, 2, 3, 100, 0])
        policy = AsyncSkipTrainConstrained(
            RoundSchedule(1, 1), budgets, expected_activations=40,
            rng=np.random.default_rng(0),
        )
        policy.rng.random(5)
        policy.remaining[0] = 1
        sd = policy.state_dict()
        clone = AsyncSkipTrainConstrained(
            RoundSchedule(1, 1), budgets, expected_activations=40,
            rng=np.random.default_rng(0),
        )
        clone.load_state_dict(sd)
        np.testing.assert_array_equal(policy.remaining, clone.remaining)
        assert policy.rng.random() == clone.rng.random()

    def test_stateless_policy_rejects_unknown_state(self):
        with pytest.raises(ValueError, match="stateless"):
            AsyncDPSGD().load_state_dict({"remaining": [1]})
        assert AsyncDPSGD().state_dict() == {}

    def test_run_start_event_validation(self):
        eng = make_engine(activations_per_node=2)
        with pytest.raises(ValueError, match="start"):
            eng.run(AsyncDPSGD(), start=99)
        with pytest.raises(ValueError, match="restored"):
            eng.run(AsyncDPSGD(), start=1)


def _policies():
    """One instance of each async policy (fresh per call — the
    constrained policy is stateful)."""
    budgets = np.array([2, 3, 100, 0, 2, 3, 100, 0])
    return {
        "async-d-psgd": lambda: AsyncDPSGD(),
        "async-skiptrain": lambda: AsyncSkipTrain(RoundSchedule(2, 2)),
        "async-skiptrain-constrained": lambda: AsyncSkipTrainConstrained(
            RoundSchedule(1, 1), budgets, expected_activations=24,
            rng=np.random.default_rng(7),
        ),
    }


class TestVectorizedEventBatching:
    """Disjoint event batching through the stacked kernels must leave
    the whole trajectory — state matrix, counters, energy, every rng
    stream, history records — bit-identical to the serial event loop
    of the oracle."""

    def _assert_trajectories_equal(self, serial_eng, batched_eng,
                                   serial_hist, batched_hist):
        np.testing.assert_array_equal(serial_eng.state, batched_eng.state)
        np.testing.assert_array_equal(serial_eng.activation_counts,
                                      batched_eng.activation_counts)
        np.testing.assert_array_equal(serial_eng.train_counts,
                                      batched_eng.train_counts)
        assert serial_eng.train_energy_wh == batched_eng.train_energy_wh
        assert serial_eng._queue == batched_eng._queue
        # next draws agree -> the event rng streams ended identically
        assert (serial_eng.rng.random() == batched_eng.rng.random())
        assert repr(serial_hist.records) == repr(batched_hist.records)

    @pytest.mark.parametrize("name", sorted(_policies()))
    def test_bit_identical_per_policy(self, name):
        make = _policies()[name]
        horizon = dict(seed=3, activations_per_node=6, eval_every=2)
        serial = oracles.serial(make_engine(**horizon))
        batched = make_engine(**horizon)
        h_s = serial.run(make())
        h_b = batched.run(make())
        self._assert_trajectories_equal(serial, batched, h_s, h_b)

    def test_bit_identical_under_failures_and_budgets(self):
        window = CrashWindow(N, [1, 5], 1.0, 3.0)
        kw = dict(seed=4, failure_model=window, enforce_budgets=True,
                  battery_fraction=0.05, activations_per_node=8,
                  eval_every=2)
        serial = oracles.serial(make_engine(**kw))
        batched = make_engine(**kw)
        h_s = serial.run(AsyncDPSGD())
        h_b = batched.run(AsyncDPSGD())
        self._assert_trajectories_equal(serial, batched, h_s, h_b)

    def test_batches_are_disjoint_and_actually_batch(self):
        """Structural check on the plans the engine executes: within
        each batch every (activator, partner) node set is pairwise
        disjoint, and at least one batch stacks multiple trainings
        (otherwise the mode silently degenerated to serial)."""
        eng = make_engine(seed=0, activations_per_node=8, eval_every=2)
        executed = []
        orig = AsyncGossipEngine._execute_batch

        def spy(self, batch):
            executed.append(batch)
            return orig(self, batch)

        eng._execute_batch = types.MethodType(spy, eng)
        trained = []
        train = eng.local_trainer.train

        def spy_train(state, ids):
            trained.append(list(ids))
            return train(state, ids)

        eng.local_trainer.train = spy_train
        eng.run(AsyncDPSGD())
        assert executed
        # each batch's activators reach the executor as one call
        assert [list(b.train_ids) for b in executed] == trained
        for batch in executed:
            # an event that trains AND gossips lists its activator in
            # both train_ids and gossips — fold it to one touched set
            # per event, then require those sets pairwise disjoint
            gossip_activators = {i for i, _ in batch.gossips}
            touched = [n for pair in batch.gossips for n in pair]
            touched += [i for i in batch.train_ids
                        if i not in gossip_activators]
            assert len(touched) == len(set(touched)), batch
            assert len(batch.train_ids) == len(set(batch.train_ids)), batch
        assert any(len(b.train_ids) > 1 for b in executed)

    def test_hook_fires_once_per_window(self):
        events = []
        eng = make_engine(seed=0, activations_per_node=6, eval_every=2)
        eng.run(AsyncDPSGD(), hook=lambda e, at, h, last_eval:
                events.append((at, last_eval)))
        assert events == [(16, 16), (32, 32), (48, 48)]

    def test_resume_inside_batch_window_crosses_engine_flavors(self):
        """An oracle checkpoint taken at an event boundary *inside* a
        batch window resumes bit-identically on the product engine:
        its first window is simply shorter (event 21 -> boundary 32)."""

        class Stop(Exception):
            pass

        horizon = dict(seed=6, activations_per_node=48 // N, eval_every=2)
        ref = make_engine(**horizon)
        h_ref = ref.run(AsyncDPSGD())

        donor = oracles.serial(make_engine(**horizon))
        captured = {}

        def stopper(engine, event, history, last_eval):
            if event == 21:  # mid-window, off the eval cadence
                captured["history"] = history
                raise Stop

        with pytest.raises(Stop):
            donor.run(AsyncDPSGD(), hook=stopper)
        sd = donor.state_dict()

        resumed = make_engine(**horizon)
        resumed.load_state_dict(sd)
        h_res = resumed.run(AsyncDPSGD(), start=21,
                            history=captured["history"])
        self._assert_trajectories_equal(ref, resumed, h_ref, h_res)

    def test_trainer_built_eagerly(self):
        assert make_engine().local_trainer.stacked is not None

    def test_evaluator_follows_vectorized(self):
        """The engine stacks its evaluation, as the sync engine does;
        only the oracle evaluates node by node."""
        from repro.nn.batched import BatchedEvaluator

        assert isinstance(make_engine().local_trainer.evaluator,
                          BatchedEvaluator)
        assert isinstance(oracles.serial(make_engine()).local_trainer.evaluator,
                          oracles.NodeByNodeEvaluator)

    def test_serial_and_vectorized_engines_share_one_executor(self):
        """Both engines train through the same executor class; the
        async one without weight decay."""
        from repro.simulation.local_step import LocalTrainer

        engine = make_engine()
        assert type(engine.local_trainer) is LocalTrainer
        assert engine.local_trainer.weight_decay == 0.0
