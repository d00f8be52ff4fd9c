"""One state layout, two ways to mix it.

Both engines hold their ``(n, dim)`` state in one in-memory float64
matrix. The sync engine's gossip writes ``W @ X`` into a spare matrix
it swaps with ``X`` (full width), or, above the spare budget, over
``X`` itself one column panel at a time. The two must be
interchangeable to the bit — whole runs, and checkpoints written under
one and resumed under the other. The consensus distance streams
``X - mean`` through one buffer, to the float of the einsum over the
whole difference. And the memory bound the three exist for: a round,
an evaluation and a checkpoint load of an over-budget engine each
allocate less than its state matrix."""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import oracles
import pytest

from repro.core.dpsgd import DPSGD
from repro.data import SyntheticSpec
from repro.experiments.runner import build_run, prepare
from repro.nn import small_mlp
from repro.simulation import (
    EngineConfig,
    build_engine,
    consensus_distance,
    load_run_checkpoint,
    save_run_checkpoint,
)
from repro.simulation import engine as engine_module
from repro.simulation.metrics import EINSUM_BUFFER

#: panels of 48 columns over the tiny preset's 8 rows: a 172-wide state
#: mixes as four panels, the last one ragged
PANEL_BYTES = 8 * 8 * 48


def layout(name):
    return oracles.panels(PANEL_BYTES) if name == "panels" else nullcontext([])


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


class TestLayoutBitIdentity:
    def test_sync_run_identical_across_layouts(self, tiny_preset):
        prepared = prepare(tiny_preset, 3, seed=0)
        runs = {}
        for name in ("full-width", "panels"):
            with layout(name) as counts:
                engine, algo = build_run(prepared, "skiptrain", total_rounds=8)
                runs[name] = engine.run(algo), engine.state
            assert name == "full-width" or (counts and min(counts) >= 3)
        np.testing.assert_array_equal(runs["full-width"][1], runs["panels"][1])
        assert_histories_equal(runs["full-width"][0], runs["panels"][0])

    @pytest.mark.parametrize("save_layout,load_layout", [
        ("full-width", "panels"), ("panels", "full-width"),
    ])
    def test_checkpoint_portable_across_layouts(
        self, tiny_preset, tmp_path, save_layout, load_layout
    ):
        """A run snapshotted under one layout resumes bit-exactly under
        the other, its state read into the fresh engine's own matrix."""
        prepared = prepare(tiny_preset, 3, seed=1)
        path = tmp_path / "run.npz"

        def build():
            return build_run(prepared, "skiptrain", total_rounds=12)

        straight, algo_s = build()
        h_straight = straight.run(algo_s)

        doomed, algo_d = build()
        saved = {}

        def hook(engine, t, history, last_eval):
            # between evaluations: every round resumes exactly
            if t == 7:
                assert last_eval < t
                save_run_checkpoint(engine, algo_d, history, t, path)
                saved["t"] = t
                raise KeyboardInterrupt

        with layout(save_layout), pytest.raises(KeyboardInterrupt):
            doomed.run(algo_d, hook=hook)

        with layout(load_layout):
            fresh, algo_f = build()
            held = fresh.state
            start, history = load_run_checkpoint(fresh, algo_f, path)
            assert start == saved["t"] and fresh.state is held
            h_resumed = fresh.run(algo_f, start=start, history=history)

        np.testing.assert_array_equal(fresh.state, straight.state)
        assert_histories_equal(h_resumed, h_straight)

    def test_async_checkpoint_resumes_into_the_engines_matrix(
        self, tiny_preset, tmp_path
    ):
        """An async run (which never forms ``W @ X``) snapshotted
        mid-window by the oracle, whose hook fires after every event,
        resumes bit-exactly on the product, its state read into the
        fresh engine's own matrix."""
        prepared = prepare(tiny_preset, 3, seed=1)
        path = tmp_path / "run.npz"

        def build():
            return build_run(prepared, "async-skiptrain", total_rounds=4,
                             eval_every=2)

        straight, policy_s = build()
        h_straight = straight.run(policy_s)

        doomed, policy_d = build()
        oracles.serial(doomed)

        def hook(engine, event, history, last_eval):
            if event == 13:  # off the evaluation cadence
                save_run_checkpoint(engine, policy_d, history, event, path)
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            doomed.run(policy_d, hook=hook)

        fresh, policy_f = build()
        held = fresh.state
        start, history = load_run_checkpoint(fresh, policy_f, path)
        assert start == 13 and fresh.state is held
        h_resumed = fresh.run(policy_f, start=start, history=history)

        np.testing.assert_array_equal(fresh.state, straight.state)
        assert h_resumed.records == h_straight.records


class TestStreamedConsensus:
    """The chunked sum relies on ``np.einsum`` reducing a contiguous
    operand one ``EINSUM_BUFFER`` of elements at a time; a numpy that
    changes that fails here."""

    @pytest.mark.parametrize("shape", [(5, 8193), (4, 20001), (64, 1000),
                                       (2, 3 * 8192 + 1), (1000, 25)])
    def test_matches_the_einsum_over_the_whole_difference(self, shape):
        rng = np.random.default_rng(shape[1])
        x = rng.normal(size=shape) * rng.uniform(0.1, 10, size=shape[1]) + 3.0
        assert x.size > 2 * EINSUM_BUFFER and x.size % EINSUM_BUFFER  # ragged
        diff = x - x.mean(axis=0, keepdims=True)
        want = float(np.einsum("ij,ij->", diff, diff) / shape[0])
        assert consensus_distance(x).hex() == want.hex()

    def test_the_ufunc_buffer_size_changes_neither(self):
        x = np.random.default_rng(0).normal(size=(7, 5001))
        previous = np.setbufsize(1024)
        try:
            diff = x - x.mean(axis=0, keepdims=True)
            want = float(np.einsum("ij,ij->", diff, diff) / 7)
            got = consensus_distance(x)
        finally:
            np.setbufsize(previous)
        assert got.hex() == want.hex()


def _wide_engine(total_rounds=1):
    """64 nodes of a 141,316-parameter MLP: a 72 MB state, far above
    every workspace a round, an evaluation or a load needs."""
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8,
                         noise_std=1.0, jitter_std=0.3, prototype_resolution=2)
    config = EngineConfig(local_steps=1, learning_rate=0.1,
                          total_rounds=total_rounds, eval_every=1)
    return build_engine(
        spec, 64, config, lambda rng: small_mlp(64, 4, hidden=2048, rng=rng),
        seed=0, num_train=8 * 64, num_test=64, batch_size=4,
    )


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    def test_a_round_and_an_evaluation_allocate_less_than_the_state(
        self, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "SPARE_BUDGET", 0)
        engine = _wide_engine()
        history, peak = _peak_bytes(lambda: engine.run(DPSGD(64)))
        assert len(history.records) == 1
        assert peak < engine.state.nbytes, (peak, engine.state.nbytes)

    def test_a_checkpoint_load_allocates_less_than_the_state(self, tmp_path):
        path = tmp_path / "run.npz"
        engine = _wide_engine(total_rounds=2)
        history = engine.run(DPSGD(64), hook=lambda e, t, h, r: (
            save_run_checkpoint(e, DPSGD(64), h, t, path) if t == 1 else None
        ))
        fresh = _wide_engine(total_rounds=2)
        held = fresh.state
        (start, partial), peak = _peak_bytes(
            lambda: load_run_checkpoint(fresh, DPSGD(64), path)
        )
        assert start == 1 and fresh.state is held
        assert peak < fresh.state.nbytes, (peak, fresh.state.nbytes)
        fresh.run(DPSGD(64), start=start, history=partial)
        np.testing.assert_array_equal(fresh.state, engine.state)
        assert partial.records == history.records
