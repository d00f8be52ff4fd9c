"""The columnar node data plane (``repro.simulation.node_bank``).

The bank replaced one ``Node`` + ``DataLoader`` + ``ArrayDataset``
object triple per node, and then the per-node numpy generators by a
vectorized replay of their streams
(``repro.simulation.batch_stream``). What must survive both is the
batch-stream contract: node ``i`` draws one ``choice(n_i, k_i,
replace=False)`` per local step off ``node_stream("batch", i)``, over
its own slice of the data. numpy stays the oracle here: the legacy
per-node ``DataLoader.sample()`` sequence, and real generators whose
draws and ``bit_generator.state`` the bank must reproduce bit for bit.
"""

import json
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import ArrayDataset, DataLoader, Partition
from repro.experiments import (
    artifact_path,
    build_plan,
    build_run,
    get_preset,
    prepare_data,
    prepared_from_data,
    run_cell,
)
from repro.experiments.artifacts import checkpoint_path
from repro.nn import small_mlp
from repro.nn.serialization import parameter_vector
from repro.scenarios import build_scenario_plan, get_scenario
from repro.simulation import NodeBank, RngFactory, batch_stream, build_nodes
from repro.simulation.local_step import LocalTrainer


def _dataset(n_samples, rng, features=3):
    return ArrayDataset(
        rng.normal(size=(n_samples, features)), rng.integers(0, 4, size=n_samples), 4
    )


def _ragged_partition(n_samples, n_nodes, rng):
    """Disjoint, non-empty, unevenly sized cells covering only part of
    the dataset, in shuffled sample order."""
    perm = rng.permutation(n_samples)[: n_samples - n_samples // 5]
    cuts = np.sort(rng.choice(np.arange(1, perm.size), size=n_nodes - 1, replace=False))
    return Partition.from_arrays(np.split(perm, cuts))


class TestDrawsMatchLegacyLoaders:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_nodes=st.integers(1, 9),
        batch_size=st.integers(1, 12),
        steps=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_index_draws_equal_per_node_loader_samples(
        self, seed, n_nodes, batch_size, steps, data
    ):
        rng = np.random.default_rng(seed)
        train = _dataset(60, rng)
        partition = _ragged_partition(60, n_nodes, rng)
        bank = build_nodes(train, partition, batch_size, RngFactory(seed))
        oracle = [
            DataLoader(train.subset(part), batch_size,
                       RngFactory(seed).node_stream("batch", i))
            for i, part in enumerate(partition)
        ]
        for _ in range(3):  # the streams must continue, not restart
            ids = np.array(sorted(data.draw(
                st.sets(st.integers(0, n_nodes - 1), min_size=1))))
            idx, k = bank.draw(ids, steps)
            assert idx.shape[:2] == (ids.size, steps)
            for r, i in enumerate(ids):
                assert k[r] == min(len(partition[i]), batch_size)
                for s in range(steps):
                    xb, yb = oracle[i].sample()
                    sel = idx[r, s, : k[r]]
                    np.testing.assert_array_equal(train.x[sel], xb)
                    np.testing.assert_array_equal(train.y[sel], yb)
        assert bank.local_steps_done.sum() > 0

    def test_steps_are_counted_per_node(self):
        rng = np.random.default_rng(0)
        bank = build_nodes(_dataset(40, rng), _ragged_partition(40, 4, rng), 5,
                           RngFactory(0))
        bank.draw(np.array([1, 3]), 3)
        bank.draw(np.array([3]), 2)
        assert bank.local_steps_done.tolist() == [0, 3, 0, 5]


def _oracle(seed, n_nodes):
    return [RngFactory(seed).node_stream("batch", i) for i in range(n_nodes)]


def _packed(gens):
    """The ``node_rng`` block as the parent commit wrote it: one row per
    real generator, read off ``bit_generator.state``."""
    packed = np.empty((len(gens), 13), dtype=np.uint64)
    for row, gen in zip(packed, gens):
        state = gen.bit_generator.state
        row[0:4] = state["state"]["counter"]
        row[4:6] = state["state"]["key"]
        row[6:10] = state["buffer"]
        row[10:] = (state["buffer_pos"], state["has_uint32"], state["uinteger"])
    return packed


def _bank_of(sizes, batch_size, seed, features=1):
    """A bank whose node ``i`` holds ``sizes[i]`` samples, in shuffled
    sample order; returns it with the partition."""
    rng = np.random.default_rng(0)
    total = int(np.sum(sizes))
    partition = Partition.from_arrays(
        np.split(rng.permutation(total), np.cumsum(sizes)[:-1]))
    bank = build_nodes(_dataset(total, rng, features), partition, batch_size,
                       RngFactory(seed))
    return bank, partition


_SEEDS = st.one_of(
    st.integers(0, 2**16),
    st.integers(2**32, 2**34),  # two entropy words
    st.integers(2**128, 2**130),  # more words than the SeedSequence pool
)


class TestSamplerMatchesNumpy:
    """The vectorized sampler against real generators: same keys, same
    batches, same ``bit_generator.state`` after every call."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_SEEDS,
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=7),
        batch_size=st.integers(1, 12),
        data=st.data(),
    )
    @example(seed=0, sizes=[1], batch_size=1, data=None)  # n_i == k_i == 1
    @example(seed=2**128 + 3, sizes=[5, 1, 9, 5], batch_size=5, data=None)
    @example(seed=2**32, sizes=[30, 2, 17], batch_size=1, data=None)  # k_i == 1
    def test_draws_keys_and_states(self, seed, sizes, batch_size, data):
        n = len(sizes)
        bank, partition = _bank_of(sizes, batch_size, seed)
        gens = _oracle(seed, n)
        for i, gen in enumerate(gens):
            np.testing.assert_array_equal(
                bank.keys[i], gen.bit_generator.state["state"]["key"])
        np.testing.assert_array_equal(bank.state_dict()["node_rng"], _packed(gens))
        calls = [(list(range(n)), 2), (list(range(0, n, 2)), 1), (list(range(n)), 3)]
        if data is not None:
            calls = [
                (sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))),
                 data.draw(st.integers(1, 4)))
                for _ in range(4)
            ]
        for ids, steps in calls:
            idx, k = bank.draw(np.array(ids), steps)
            for r, i in enumerate(ids):
                assert k[r] == min(sizes[i], batch_size)
                for s in range(steps):
                    want = gens[i].choice(sizes[i], size=k[r], replace=False)
                    np.testing.assert_array_equal(idx[r, s, : k[r]], partition[i][want])
            # the snapshot is the cursor, whatever was read ahead
            np.testing.assert_array_equal(
                bank.state_dict()["node_rng"], _packed(gens))
        # a block written by real generators (a checkpoint of the parent
        # commit) loads and continues the same streams
        fresh, _ = _bank_of(sizes, batch_size, seed)
        fresh.load_state_dict(
            {"node_rng": _packed(gens), "node_steps_done": bank.local_steps_done})
        everyone = np.arange(n)
        np.testing.assert_array_equal(fresh.draw(everyone, 2)[0],
                                      bank.draw(everyone, 2)[0])
        np.testing.assert_array_equal(fresh.consumed, bank.consumed)

    def test_lemire_rejection_is_replayed_by_numpy(self, monkeypatch):
        """A bounded draw whose low product half falls under
        ``2**32 % bound`` makes numpy take another word. Find such a
        word in a node's stream, stand the node on it, and draw."""
        size = 9973  # one draw on [0, size) per step when k == 1
        bank, partition = _bank_of([3, size], 1, seed=5)
        key, threshold = bank.keys[1:2], (1 << 32) % size
        at, chunk = None, 1 << 19
        for base in range(0, 1 << 24, chunk):
            words = batch_stream.stream_words(
                key, np.array([base]), np.arange(chunk)[None, :])[0]
            hits = np.flatnonzero((words * np.uint64(size)) & np.uint64(0xFFFFFFFF)
                                  < np.uint64(threshold))
            if hits.size:
                at = base + int(hits[0])
                break
        assert at is not None, "no rejecting word in 2**24: pick another seed"
        state = bank.state_dict()
        state["node_rng"] = batch_stream.pack_states(bank.keys, np.array([0, at]))
        bank.load_state_dict(state)
        gen = batch_stream._generator(state["node_rng"][1])
        replayed = []
        replay = batch_stream.replay
        monkeypatch.setattr(
            batch_stream, "replay",
            lambda key, start, *rest: replayed.append(start) or replay(key, start, *rest),
        )
        idx, _ = bank.draw(np.array([1]), 3)
        assert replayed == [at]
        want = [gen.choice(size, size=1, replace=False) for _ in range(3)]
        np.testing.assert_array_equal(idx[0], partition[1][np.array(want)])
        # step 0 took the rejected word and its redraw
        assert bank.consumed[1] == at + 4
        np.testing.assert_array_equal(
            bank.state_dict()["node_rng"][1], _packed([gen])[0])

    def test_tail_shuffle_population_is_drawn_by_numpy(self):
        """Past 10000 samples with ``k > n // 50`` numpy shuffles the
        tail of an ``arange`` instead of running Floyd's algorithm."""
        sizes = [20001, 7, 12000]  # 12000 // 50 == 240 >= k: Floyd
        bank, partition = _bank_of(sizes, 500, seed=11)
        gens = _oracle(11, 3)
        for steps in (2, 1):
            idx, k = bank.draw(np.arange(3), steps)
            assert k.tolist() == [500, 7, 500]
            for i in range(3):
                for s in range(steps):
                    want = gens[i].choice(sizes[i], size=k[i], replace=False)
                    np.testing.assert_array_equal(idx[i, s, : k[i]], partition[i][want])
        np.testing.assert_array_equal(bank.state_dict()["node_rng"], _packed(gens))

    def test_no_generator_object_is_built(self, monkeypatch):
        """Build, draw, snapshot and restore without constructing one
        ``SeedSequence``, ``Philox`` or ``Generator``."""
        bank, _ = _bank_of([8] * 40, 4, seed=3)
        twin, _ = _bank_of([8] * 40, 4, seed=3)
        rng = np.random.default_rng(1)
        train = _dataset(40, rng)
        partition = Partition(np.arange(0, 41, 5), np.arange(40))

        def forbidden(*args, **kwargs):
            raise AssertionError("a numpy generator object was constructed")

        for name in ("SeedSequence", "Philox", "Generator"):
            monkeypatch.setattr(np.random, name, forbidden)
        build_nodes(train, partition, 4, RngFactory(3))
        bank.draw(np.arange(40), 2)
        bank.draw(np.array([3, 5]), 1)
        twin.load_state_dict(bank.state_dict())
        np.testing.assert_array_equal(twin.draw(np.arange(40), 1)[0],
                                      bank.draw(np.arange(40), 1)[0])

    def test_duplicate_ids_rejected(self):
        bank, _ = _bank_of([8] * 5, 4, seed=0)
        with pytest.raises(ValueError, match="must be distinct"):
            bank.draw(np.array([0, 3, 3]), 1)
        assert bank.consumed.sum() == 0 and bank.local_steps_done.sum() == 0

    @pytest.mark.parametrize("trainer_cls", [oracles.SerialTrainer, LocalTrainer],
                             ids=["serial", "stacked"])
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_a_node_outside_the_bank_is_refused_before_a_cursor_moves(
        self, bad, trainer_cls
    ):
        """Node ``-1`` used to alias node ``n - 1``: the draw advanced
        that node's stream and step count, then the stacked trainer
        refused the row (and the serial loop trained row ``n - 1``)."""
        bank, _ = _bank_of([8] * 5, 4, seed=0, features=3)
        model = small_mlp(3, 4, hidden=5, rng=np.random.default_rng(0))
        trainer = trainer_cls(model, bank, 2, 0.1, 0.0)
        state = np.tile(parameter_vector(model), (5, 1))
        trainer.train(state, np.arange(5))
        before = [bank.consumed.copy(), bank.local_steps_done.copy(), state.copy()]
        with pytest.raises(IndexError, match=r"\[0, 5\)"):
            trainer.train(state, np.array([2, bad]))
        after = [bank.consumed, bank.local_steps_done, state]
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]

    def test_nonpositive_steps_rejected(self):
        bank, _ = _bank_of([8] * 5, 4, seed=0)
        with pytest.raises(ValueError, match="steps"):
            bank.draw(np.array([0]), 0)


class TestNoCopies:
    def test_bank_shares_the_dataset_arrays(self):
        rng = np.random.default_rng(1)
        train = _dataset(64, rng)
        bank = build_nodes(train, _ragged_partition(64, 8, rng), 4, RngFactory(1))
        assert np.shares_memory(bank.x, train.x)
        assert np.shares_memory(bank.y, train.y)

    def test_build_allocates_for_the_partition_not_the_dataset(self):
        """A bank costs index arrays and generators — O(samples) int64
        plus O(n) — never a second copy of the features."""
        rng = np.random.default_rng(2)
        train = _dataset(20_000, rng, features=256)  # 39 MiB of features
        partition = Partition(np.arange(0, 20_001, 400), rng.permutation(20_000))
        rngs = RngFactory(2)
        tracemalloc.start()
        try:
            bank = build_nodes(train, partition, 8, rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bank) == 50
        assert peak < train.x.nbytes / 16

    def test_a_fleet_cell_builds_no_per_node_view(self, monkeypatch):
        """Partitioner to ``NodeBank`` to one round of ``n1024-fleet``
        with the per-node views refused: the partition stays one CSR."""
        def refused(*args):
            raise AssertionError("a per-node view of the partition was built")

        monkeypatch.setattr(Partition, "__iter__", refused)
        monkeypatch.setattr(Partition, "__getitem__", refused)
        data = prepare_data(get_preset("n1024-fleet"), seed=0)
        engine, algorithm = build_run(
            prepared_from_data(data, 4), "skiptrain", total_rounds=1, eval_every=1
        )
        engine.run(algorithm)
        assert engine.nodes.indices is data.partition.indices
        assert engine.nodes.local_steps_done.sum() > 0

    def test_bank_shares_the_partition_arrays(self):
        rng = np.random.default_rng(1)
        partition = _ragged_partition(64, 8, rng)
        bank = build_nodes(_dataset(64, rng), partition, 4, RngFactory(1))
        assert bank.indices is partition.indices
        assert bank.offsets is partition.offsets


class TestPartitionValidation:
    def _build(self, parts, n_samples=10):
        rng = np.random.default_rng(3)
        return NodeBank(_dataset(n_samples, rng), Partition.from_arrays(parts), 4,
                        RngFactory(3))

    def test_a_list_of_arrays_is_refused(self):
        rng = np.random.default_rng(3)
        with pytest.raises(TypeError, match="Partition.from_arrays"):
            NodeBank(_dataset(10, rng), [np.arange(5), np.arange(5, 10)], 4,
                     RngFactory(3))

    def test_negative_index_names_the_node(self):
        with pytest.raises(ValueError, match=r"node 1: partition index -1 out of range"):
            self._build([np.array([0, 1]), np.array([2, -1])])

    def test_index_past_the_end_names_the_node(self):
        with pytest.raises(ValueError, match=r"node 2: partition index 10 out of range"):
            self._build([np.array([0]), np.array([1]), np.array([9, 10])])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            self._build([np.array([0, 1]), np.array([1, 2])])

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError, match="node 1 has an empty dataset"):
            self._build([np.array([0, 1]), np.array([], dtype=np.int64)])

    def test_device_count_must_match(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="one device per node"):
            NodeBank(_dataset(10, rng), Partition(np.array([0, 5, 10]), np.arange(10)),
                     4, RngFactory(3), devices=())

    def test_nonpositive_batch_size_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="batch_size"):
            NodeBank(_dataset(10, rng), Partition(np.array([0, 10]), np.arange(10)), 0,
                     RngFactory(3))


class TestPackedStateCodec:
    def _bank(self, seed=4):
        rng = np.random.default_rng(seed)
        return build_nodes(_dataset(50, rng), _ragged_partition(50, 6, rng), 4,
                           RngFactory(seed))

    def test_round_trip_continues_every_stream(self):
        bank = self._bank()
        ids = np.arange(6)
        bank.draw(ids[::2], 3)  # leave the streams at different positions
        saved = bank.state_dict()
        assert saved["node_rng"].shape == (6, 13)
        assert saved["node_rng"].dtype == np.uint64
        expected_idx, _ = bank.draw(ids, 2)

        fresh = self._bank()
        fresh.load_state_dict(saved)
        got_idx, _ = fresh.draw(ids, 2)
        np.testing.assert_array_equal(got_idx, expected_idx)
        np.testing.assert_array_equal(fresh.local_steps_done, bank.local_steps_done)

    def test_snapshot_is_detached_from_the_live_counters(self):
        bank = self._bank()
        saved = bank.state_dict()
        bank.draw(np.arange(6), 1)
        assert saved["node_steps_done"].sum() == 0

    def test_wrong_node_count_rejected(self):
        saved = self._bank().state_dict()
        saved["node_rng"] = saved["node_rng"][:-1]
        with pytest.raises(ValueError, match="node rng block"):
            self._bank().load_state_dict(saved)

    def test_snapshot_of_another_seed_rejected(self):
        """The keys are the run's identity: streams of seed 7 must not
        resume silently inside a seed 8 run."""
        taken, bank = self._bank(seed=7), self._bank(seed=8)
        taken.draw(np.arange(6), 2)
        before = bank.state_dict()
        with pytest.raises(ValueError, match=r"node 0 is keyed differently"):
            bank.load_state_dict(taken.state_dict())
        # one foreign row is enough, and it is the one named
        mixed = bank.state_dict()
        mixed["node_rng"][4] = taken.state_dict()["node_rng"][4]
        with pytest.raises(ValueError, match=r"node 4 is keyed differently"):
            bank.load_state_dict(mixed)
        np.testing.assert_array_equal(bank.state_dict()["node_rng"],
                                      before["node_rng"])


class Kill(Exception):
    pass


def _killer(at):
    def hook(engine, t, history, last):
        if t == at:
            raise Kill

    return hook


#: kill points drawn once, from a seeded stream, so the "random round"
#: is random across the horizon yet the same on every run
_KILL_RNG = np.random.default_rng(20240)


class TestKillAtRandomPointResumesThroughThePackedCodec:
    @pytest.mark.parametrize(
        "kill_round", sorted({int(t) for t in _KILL_RNG.integers(3, 24, size=3)})
    )
    def test_sync_cell(self, tiny_preset, tmp_path, kill_round):
        cell = build_plan(tiny_preset, ("skiptrain-constrained",), seeds=(0,))[0]
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(tiny_preset, cell, ref)
        with pytest.raises(Kill):
            run_cell(tiny_preset, cell, killed, checkpoint_every=1,
                     round_hook=_killer(kill_round))
        # a kill before the first evaluation round leaves no checkpoint
        # and the rerun starts over; past it, the rerun must resume
        had_checkpoint = checkpoint_path(killed, cell).is_file()
        if had_checkpoint:
            with np.load(checkpoint_path(killed, cell)) as archive:
                assert archive["node_rng"].shape == (tiny_preset.n_nodes, 13)
                assert "node_rng_json" not in archive.files
        _, resumed = run_cell(tiny_preset, cell, killed, checkpoint_every=1)
        assert resumed == had_checkpoint
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    @pytest.mark.parametrize("run", [oracles.run_cell, run_cell],
                             ids=["oracle", "product"])
    @pytest.mark.parametrize(
        "kill_event", sorted({int(e) for e in _KILL_RNG.integers(40, 280, size=2)})
    )
    def test_async_churn_cell(self, tmp_path, kill_event, run):
        spec = get_scenario("churn-async")
        preset = get_preset(spec.preset)
        cell = build_scenario_plan(spec, seeds=(0,))[0]
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run(preset, cell, ref)

        def killer(engine, event, history, last):
            # the product's hook fires per window: kill at the first
            # boundary at or past the drawn event
            if event >= kill_event:
                # the checkpoint just written holds cursors that stand
                # mid-way through the bank's read-ahead
                at, width = engine.nodes._ahead_at, engine.nodes._ahead_end.shape[1]
                assert ((at > 0) & (at < width)).any()
                raise Kill

        with pytest.raises(Kill):
            run(preset, cell, killed, checkpoint_every=1, round_hook=killer)
        if checkpoint_path(killed, cell).is_file():
            with np.load(checkpoint_path(killed, cell)) as archive:
                assert archive["node_rng"].dtype == np.uint64
        run(preset, cell, killed, checkpoint_every=1)
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    def test_old_layout_checkpoint_is_refused(self, tiny_preset, tmp_path):
        cell = build_plan(tiny_preset, ("skiptrain",), seeds=(0,))[0]
        with pytest.raises(Kill):
            run_cell(tiny_preset, cell, tmp_path, checkpoint_every=1,
                     round_hook=_killer(17))
        ckpt = checkpoint_path(tmp_path, cell)
        with np.load(ckpt) as archive:
            forged = {key: archive[key] for key in archive.files}
        # what a tree before the packed block wrote: per-node JSON
        # streams and, like every layout before the envelope, no stamp
        del forged["node_rng"], forged["format"]
        forged["node_rng_json"] = np.array(json.dumps([{}] * tiny_preset.n_nodes))
        with open(ckpt, "wb") as fh:
            np.savez(fh, **forged)
        with pytest.raises(ValueError, match="delete it and rerun the cell"):
            run_cell(tiny_preset, cell, tmp_path, checkpoint_every=1)
