"""Checkpoint/resume tests."""

import numpy as np
import oracles
import pytest

from repro.core import DPSGD
from repro.core.compression import RandomKCompressor
from repro.core.schedule import RoundSchedule
from repro.core.skiptrain import SkipTrainConstrained
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD, EnergyMeter, build_trace
from repro.nn import small_mlp
from repro.experiments.runner import build_run, execute_run, prepare
from repro.simulation import (
    EngineConfig,
    IndependentCrashes,
    RngFactory,
    SimulationEngine,
    build_nodes,
    generator_state,
    load_run_checkpoint,
    restore_generator,
    save_run_checkpoint,
)
from repro.simulation.metrics import RunHistory
from repro.topology import metropolis_hastings_weights, regular_neighbors

N = 8
SPEC = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                     noise_std=1.0, jitter_std=0.3, prototype_resolution=2)


def make_engine(seed=0, total_rounds=16):
    rngs = RngFactory(seed)
    train, protos = make_classification_images(SPEC, 400, rngs.stream("data"))
    test, _ = make_classification_images(SPEC, 100, rngs.stream("test"),
                                         prototypes=protos)
    parts = shard_partition(train.y, N, rng=rngs.stream("partition"))
    nodes = build_nodes(train, parts, 8, rngs)
    w = metropolis_hastings_weights(regular_neighbors(N, 3, seed=0))
    cfg = EngineConfig(local_steps=2, learning_rate=0.2,
                       total_rounds=total_rounds, eval_every=4)
    model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
    meter = EnergyMeter(build_trace(N, CIFAR10_WORKLOAD, 0.1))
    return SimulationEngine(model, nodes, w, cfg, test, meter=meter,
                            eval_rng=rngs.stream("eval"))


def assert_untouched(engine, fresh):
    """``engine`` is bit-equal to the freshly built ``fresh``: state
    matrix, every node's batch-stream position, meter totals."""
    np.testing.assert_array_equal(engine.state, fresh.state)
    got, want = engine.nodes.state_dict(), fresh.nodes.state_dict()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])
    if getattr(engine, "meter", None) is not None:
        assert engine.meter.total_wh == fresh.meter.total_wh == 0.0
        np.testing.assert_array_equal(engine.meter.train_rounds,
                                      fresh.meter.train_rounds)


class TestCheckpoint:
    """The engine half of a run checkpoint (these were the cases of the
    engine-only ``save_checkpoint`` pair, which is gone)."""

    def test_roundtrip_restores_state_and_meter(self, tmp_path):
        eng = make_engine()
        history = eng.run(DPSGD(N))
        path = tmp_path / "ckpt.npz"
        save_run_checkpoint(eng, DPSGD(N), history, 16, path)

        fresh = make_engine()
        assert not np.allclose(fresh.state, eng.state)
        resumed_round, restored = load_run_checkpoint(fresh, DPSGD(N), path)
        assert resumed_round == 16
        assert_histories_equal(restored, history)
        np.testing.assert_array_equal(fresh.state, eng.state)
        np.testing.assert_array_equal(fresh.meter.train_wh, eng.meter.train_wh)
        np.testing.assert_array_equal(fresh.meter.train_rounds,
                                      eng.meter.train_rounds)
        assert fresh.meter.total_wh == eng.meter.total_wh
        with np.load(path) as archive:
            assert str(archive["format"]) == "repro/run-checkpoint/v1"
            assert str(archive["kind"]) == "sync"

    def test_in_process_resume_matches_straight_run(self, tmp_path):
        """8 rounds + resume for 8 more ≡ 16 straight rounds, exactly:
        the snapshot of an 8-round engine restores into a fresh
        16-round one, node batch streams included."""
        straight = make_engine(seed=3, total_rounds=16)
        h_straight = straight.run(DPSGD(N))

        first_half = make_engine(seed=3, total_rounds=8)
        h_half = first_half.run(DPSGD(N))
        path = tmp_path / "half.npz"
        save_run_checkpoint(first_half, DPSGD(N), h_half, 8, path)

        split = make_engine(seed=3, total_rounds=16)
        resumed_round, history = load_run_checkpoint(split, DPSGD(N), path)
        h_rest = split.run(DPSGD(N), start=resumed_round, history=history)

        np.testing.assert_array_equal(split.state, straight.state)
        assert_histories_equal(h_rest, h_straight)

    def test_shape_mismatch_rejected(self, tmp_path):
        eng = make_engine()
        path = tmp_path / "ckpt.npz"
        save_run_checkpoint(eng, DPSGD(N), RunHistory("D-PSGD"), 4, path)
        other = make_engine()
        # forge a wrong-shape state matrix
        other.state = np.zeros((N, 5))
        with pytest.raises(ValueError, match="shape"):
            load_run_checkpoint(other, DPSGD(N), path)
        # refused before the bank or the meter moved
        fresh = make_engine()
        fresh.state = np.zeros((N, 5))
        assert_untouched(other, fresh)

    def test_negative_round_rejected(self, tmp_path):
        eng = make_engine()
        with pytest.raises(ValueError):
            save_run_checkpoint(eng, DPSGD(N), RunHistory("D-PSGD"), -1,
                                tmp_path / "x.npz")
        assert not list(tmp_path.iterdir())

    def test_start_round_validation(self):
        eng = make_engine(total_rounds=8)
        with pytest.raises(ValueError):
            eng.run(DPSGD(N), start=9)


class TestMeterStateDict:
    def test_roundtrip(self):
        eng = make_engine()
        eng.run(DPSGD(N))
        snapshot = eng.meter.state_dict()
        fresh = EnergyMeter(build_trace(N, CIFAR10_WORKLOAD, 0.1))
        fresh.load_state_dict(snapshot)
        np.testing.assert_array_equal(fresh.train_wh, eng.meter.train_wh)
        np.testing.assert_array_equal(fresh.comm_wh, eng.meter.comm_wh)
        np.testing.assert_array_equal(fresh.train_rounds,
                                      eng.meter.train_rounds)
        np.testing.assert_array_equal(fresh.cumulative_total_wh(),
                                      eng.meter.cumulative_total_wh())

    def test_snapshot_is_a_copy(self):
        eng = make_engine()
        snapshot = eng.meter.state_dict()
        snapshot["train_wh"][:] = 99.0
        assert eng.meter.total_train_wh == 0.0

    def test_shape_and_key_validation(self):
        meter = EnergyMeter(build_trace(N, CIFAR10_WORKLOAD, 0.1))
        with pytest.raises(ValueError, match="lacks"):
            meter.load_state_dict({"train_wh": np.zeros(N)})
        bad = meter.state_dict()
        bad["comm_wh"] = np.zeros(N + 1)
        with pytest.raises(ValueError, match="shape"):
            meter.load_state_dict(bad)


class TestGeneratorState:
    def test_roundtrip_continues_stream(self):
        gen = RngFactory(7).stream("x")
        gen.random(13)
        clone = restore_generator(generator_state(gen))
        np.testing.assert_array_equal(gen.random(50), clone.random(50))

    def test_state_is_json_safe(self):
        import json

        gen = RngFactory(7).node_stream("batch", 3)
        gen.random(5)
        json.dumps(generator_state(gen))  # no numpy scalars/arrays left

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValueError, match="bit generator"):
            restore_generator({"bit_generator": "NotAThing"})


def assert_histories_equal(a, b):
    """Exact record equality, treating NaN train losses as equal
    (dataclass ``==`` is false for NaN fields)."""
    import dataclasses as dc
    import math

    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        for f in dc.fields(ra):
            va, vb = getattr(ra, f.name), getattr(rb, f.name)
            if isinstance(va, float) and math.isnan(va):
                assert isinstance(vb, float) and math.isnan(vb)
            else:
                assert va == vb, f.name


def make_constrained(total_rounds=16, seed=0):
    rngs = RngFactory(seed)
    budgets = np.array([2, 3, 1, 4, 2, 3, 1, 2])
    return SkipTrainConstrained(
        N, RoundSchedule(2, 2), budgets=budgets, total_rounds=total_rounds,
        rng=rngs.stream("participation"),
    )


class TestRunCheckpoint:
    """The full mid-run snapshot: a *fresh* engine + algorithm (as after
    a process kill) restored from disk must continue bit-for-bit."""

    def test_cross_process_resume_is_bit_exact(self, tmp_path):
        straight = make_engine(seed=5, total_rounds=16)
        algo = make_constrained()
        h_straight = straight.run(algo)

        # the doomed process: checkpoint at round 7 (the (2,2)
        # schedule's first eval round under eval_every=4), die at 10.
        doomed = make_engine(seed=5, total_rounds=16)
        doomed_algo = make_constrained()
        path = tmp_path / "run.npz"

        class Die(Exception):
            pass

        def hook(engine, t, history, resumable_at):
            if t == 7:
                assert resumable_at == t  # only eval rounds resume exactly
                save_run_checkpoint(engine, doomed_algo, history, t, path)
            if t == 10:
                raise Die

        with pytest.raises(Die):
            doomed.run(doomed_algo, hook=hook)

        # the restarted process: everything rebuilt from scratch.
        fresh = make_engine(seed=5, total_rounds=16)
        fresh_algo = make_constrained()
        start, history = load_run_checkpoint(fresh, fresh_algo, path)
        assert start == 7
        h_resumed = fresh.run(fresh_algo, start=start, history=history)

        np.testing.assert_array_equal(fresh.state, straight.state)
        assert_histories_equal(h_resumed, h_straight)
        np.testing.assert_array_equal(fresh.meter.train_wh,
                                      straight.meter.train_wh)
        np.testing.assert_array_equal(fresh.meter.cumulative_total_wh(),
                                      straight.meter.cumulative_total_wh())

    def test_rejects_unstamped_checkpoint(self, tmp_path):
        """A file without the format stamp — every layout older trees
        wrote — is per-cell scratch this version does not read."""
        eng = make_engine()
        path = tmp_path / "plain.npz"
        np.savez(path, state=eng.state, round_index=np.array(4))
        victim = make_engine()
        with pytest.raises(ValueError, match="delete it and rerun the cell"):
            load_run_checkpoint(victim, DPSGD(N), path)
        assert_untouched(victim, make_engine())

    def test_rejects_algorithm_mismatch(self, tmp_path):
        eng = make_engine()
        algo = make_constrained()
        history = eng.run(algo)
        path = tmp_path / "run.npz"
        save_run_checkpoint(eng, algo, history, 16, path)
        victim = make_engine()
        with pytest.raises(ValueError, match="algorithm"):
            load_run_checkpoint(victim, DPSGD(N), path)
        # refused before anything was restored, not halfway through
        assert_untouched(victim, make_engine())

    @pytest.mark.parametrize("part", ["compressor", "failure_model"])
    def test_rejects_uncapturable_engine_state(self, tmp_path, part):
        """A stochastic compressor and ``IndependentCrashes`` each hold
        an rng the snapshot does not capture — saving must fail fast,
        before a file exists, not resume divergently."""
        eng = make_engine()
        rng = np.random.default_rng(0)
        if part == "compressor":
            eng.compressor = RandomKCompressor(0.5, rng)
        else:
            eng.failure_model = IndependentCrashes(N, 0.2, rng)
        algo = DPSGD(N)
        path = tmp_path / "x.npz"
        with pytest.raises(ValueError, match="rng"):
            save_run_checkpoint(eng, algo, RunHistory(algorithm=algo.name),
                                4, path)
        assert not path.exists()

    def test_stateless_algorithm_rejects_foreign_state(self):
        with pytest.raises(ValueError, match="no checkpointable state"):
            DPSGD(N).load_state_dict({"remaining": [1]})

    def test_budget_algorithms_state_roundtrip(self):
        algo = make_constrained()
        for t in range(1, 9):
            algo.train_mask(t)
        clone = make_constrained()
        clone.load_state_dict(algo.state_dict())
        np.testing.assert_array_equal(clone.state.remaining,
                                      algo.state.remaining)
        for t in range(9, 17):
            np.testing.assert_array_equal(clone.train_mask(t),
                                          algo.train_mask(t))


class Kill(Exception):
    pass


def build(prepared, kind, layout="product"):
    """A wired (engine, algorithm) pair of ``kind``, on the product's
    stacked path or the serial ``oracle`` loops."""
    if kind == "async":
        engine, algo = build_run(prepared, "async-skiptrain-constrained",
                                 total_rounds=6, eval_every=1)
    else:
        engine, algo = build_run(prepared, "skiptrain-constrained",
                                 total_rounds=12, eval_every=2)
    return (oracles.serial(engine) if layout == "oracle" else engine), algo


def run(pair, trace, **kwargs):
    return execute_run(*pair, trace, **kwargs)


class TestOnePairBothEngines:
    """The same two functions checkpoint a sync and an async run."""

    @pytest.mark.parametrize("layout", ["oracle", "product"])
    @pytest.mark.parametrize("kind", ["sync", "async"])
    def test_kill_and_resume(self, tiny_preset, tmp_path, kind, layout):
        prepared = prepare(tiny_preset, 3, seed=2)
        path = tmp_path / "run.npz"
        straight = build(prepared, kind, layout)
        want = run(straight, prepared.trace)

        doomed = build(prepared, kind, layout)
        saved = []

        def hook(engine, at, history, resumable_at):
            # sync resumes exactly from evaluation rounds only
            if not saved and at >= 4 and resumable_at == at:
                save_run_checkpoint(engine, doomed[1], history, at, path)
                saved.append(at)
                raise Kill

        with pytest.raises(Kill):
            run(doomed, prepared.trace, hook=hook)

        fresh = build(prepared, kind, layout)
        start, history = load_run_checkpoint(*fresh, path)
        assert [start] == saved
        got = run(fresh, prepared.trace, start=start, history=history)

        np.testing.assert_array_equal(fresh[0].state, straight[0].state)
        assert_histories_equal(got.history, want.history)
        assert type(got.history) is type(want.history)
        with np.load(path) as archive:
            assert str(archive["kind"]) == kind

    @pytest.mark.parametrize("saved_kind,offered", [("sync", "async"),
                                                    ("async", "sync")])
    def test_other_kind_refused_untouched(
        self, tiny_preset, tmp_path, saved_kind, offered
    ):
        prepared = prepare(tiny_preset, 3, seed=2)
        path = tmp_path / "run.npz"
        donor = build(prepared, saved_kind)
        result = run(donor, prepared.trace)
        save_run_checkpoint(*donor, result.history, 1, path)

        victim = build(prepared, offered)
        with pytest.raises(ValueError) as err:
            load_run_checkpoint(*victim, path)
        assert "sync" in str(err.value) and "async" in str(err.value)
        assert "delete it and rerun the cell" in str(err.value)
        assert_untouched(victim[0], build(prepared, offered)[0])

    def test_deleted_pairs_stay_deleted(self):
        import repro.simulation as simulation
        from repro.simulation import checkpoint

        assert checkpoint.__all__ == ["save_run_checkpoint",
                                      "load_run_checkpoint"]
        for name in ("save_checkpoint", "load_checkpoint",
                     "save_async_run_checkpoint", "load_async_run_checkpoint"):
            assert not hasattr(simulation, name)
            assert not hasattr(checkpoint, name)
        with pytest.raises(ImportError):
            from repro.simulation import save_async_run_checkpoint  # noqa: F401
        with pytest.raises(ImportError):
            from repro.simulation import save_checkpoint  # noqa: F401
        with pytest.raises(ImportError):
            from repro.experiments.artifacts import (  # noqa: F401
                write_async_cell_artifact,
            )
