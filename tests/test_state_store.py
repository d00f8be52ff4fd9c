"""State-store battery: the memory and mmap backings must be
interchangeable to the bit — full sync and async runs, checkpoints
written under one backend and restored under the other — and the mmap
backing file must disappear on every exit path (close, exception,
Ctrl-C)."""

import gc
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import oracles
import pytest

from repro.experiments.runner import build_run, prepare
from repro.simulation import (
    MemoryStateStore,
    MmapStateStore,
    load_run_checkpoint,
    make_state_store,
    resolve_state_backend,
    save_run_checkpoint,
)
from repro.simulation.state_store import AUTO_MMAP_BYTES


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


def run_sync(prepared, backend):
    engine, algo = build_run(prepared, "skiptrain", total_rounds=8,
                             state_backend=backend)
    try:
        history = engine.run(algo)
        return engine.state.copy(), history
    finally:
        engine.close()


def run_async(prepared, backend):
    # 2 expected activations per node x 8 nodes: every 16 events
    engine, policy = build_run(prepared, "async-skiptrain", total_rounds=4,
                               eval_every=2, state_backend=backend)
    try:
        history = engine.run(policy)
        return engine.state.copy(), history
    finally:
        engine.close()


class TestBackendBitIdentity:
    def test_sync_run_identical_across_backends(self, tiny_preset):
        prepared = prepare(tiny_preset, 3, seed=0)
        s_mem, h_mem = run_sync(prepared, "memory")
        s_mm, h_mm = run_sync(prepared, "mmap")
        np.testing.assert_array_equal(s_mem, s_mm)
        assert_histories_equal(h_mem, h_mm)

    def test_async_run_identical_across_backends(self, tiny_preset):
        prepared = prepare(tiny_preset, 3, seed=0)
        s_mem, h_mem = run_async(prepared, "memory")
        s_mm, h_mm = run_async(prepared, "mmap")
        np.testing.assert_array_equal(s_mem, s_mm)
        assert len(h_mem.records) == len(h_mm.records)
        assert repr(h_mem.records) == repr(h_mm.records)

    @pytest.mark.parametrize("save_backend,load_backend", [
        ("memory", "mmap"), ("mmap", "memory"),
    ])
    def test_checkpoint_portable_across_backends(
        self, tiny_preset, tmp_path, save_backend, load_backend
    ):
        """A checkpoint is backend-agnostic: a run snapshotted under one
        backing resumes bit-exactly under the other."""
        prepared = prepare(tiny_preset, 3, seed=1)
        path = tmp_path / "run.npz"

        straight, algo_s = build_run(prepared, "skiptrain", total_rounds=12,
                                     state_backend=save_backend)
        h_straight = straight.run(algo_s)

        doomed, algo_d = build_run(prepared, "skiptrain", total_rounds=12,
                                   state_backend=save_backend)
        saved = {}

        def hook(engine, t, history, resumable_at):
            # resume is exact only from an evaluation round
            if not saved and resumable_at == t and t < 12:
                save_run_checkpoint(engine, algo_d, history, t, path)
                saved["t"] = t
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            doomed.run(algo_d, hook=hook)
        doomed.close()

        fresh, algo_f = build_run(prepared, "skiptrain", total_rounds=12,
                                  state_backend=load_backend)
        start, history = load_run_checkpoint(fresh, algo_f, path)
        assert start == saved["t"]
        h_resumed = fresh.run(algo_f, start=start, history=history)

        np.testing.assert_array_equal(fresh.state, straight.state)
        assert_histories_equal(h_resumed, h_straight)
        straight.close()
        fresh.close()


    @pytest.mark.parametrize("save_backend,load_backend", [
        ("memory", "mmap"), ("mmap", "memory"),
    ])
    def test_async_checkpoint_portable_across_backends(
        self, tiny_preset, tmp_path, save_backend, load_backend
    ):
        """The same pair, an async run: snapshotted mid-window under
        one backing by the oracle (whose hook fires after every event),
        resumed bit-exactly under the other by the product."""
        prepared = prepare(tiny_preset, 3, seed=1)
        path = tmp_path / "run.npz"

        def build(backend):
            return build_run(prepared, "async-skiptrain", total_rounds=4,
                             eval_every=2, state_backend=backend)

        straight, policy_s = build(save_backend)
        h_straight = straight.run(policy_s)

        doomed, policy_d = build(save_backend)
        oracles.serial(doomed)

        def hook(engine, event, history, resumable_at):
            if event == 13:  # off the evaluation cadence
                save_run_checkpoint(engine, policy_d, history, event, path)
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            doomed.run(policy_d, hook=hook)
        doomed.close()

        fresh, policy_f = build(load_backend)
        start, history = load_run_checkpoint(fresh, policy_f, path)
        assert start == 13
        h_resumed = fresh.run(policy_f, start=start, history=history)

        np.testing.assert_array_equal(fresh.state, straight.state)
        assert h_resumed.records == h_straight.records
        straight.close()
        fresh.close()


class TestResolveAndMake:
    def test_explicit_backends_pass_through(self):
        assert resolve_state_backend("memory", 10**6, 10**6) == "memory"
        assert resolve_state_backend("mmap", 2, 2) == "mmap"

    def test_auto_threshold(self):
        rows_under = AUTO_MMAP_BYTES // (8 * 64)
        assert resolve_state_backend("auto", rows_under, 64) == "memory"
        assert resolve_state_backend("auto", rows_under + 1, 64) == "mmap"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="state_backend"):
            resolve_state_backend("ramdisk", 8, 8)

    def test_make_state_store_tiles_init_row(self, tmp_path):
        row = np.arange(5, dtype=np.float64)
        mem = make_state_store("memory", row, n_rows=4)
        mm = make_state_store("mmap", row, n_rows=4, directory=tmp_path)
        assert isinstance(mem, MemoryStateStore)
        assert isinstance(mm, MmapStateStore)
        np.testing.assert_array_equal(mem.array, np.tile(row, (4, 1)))
        np.testing.assert_array_equal(mm.array, mem.array)
        mm.close()

    def test_make_state_store_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            make_state_store("memory", np.zeros((2, 2)), n_rows=4)
        with pytest.raises(ValueError, match="positive"):
            make_state_store("memory", np.zeros(3), n_rows=0)

    def test_assign_semantics(self, tmp_path):
        row = np.ones(3)
        mem = make_state_store("memory", row, n_rows=2)
        new = np.full((2, 3), 7.0)
        mem.assign(new)
        assert mem.array is new  # rebind, the historical semantics

        mm = make_state_store("mmap", row, n_rows=2, directory=tmp_path)
        view = mm.array
        mm.assign(new)
        assert mm.array is view  # in-place copy, the mapping persists
        np.testing.assert_array_equal(view, new)
        mm.close()

    def test_assign_shape_mismatch_rejected(self, tmp_path):
        for backend in ("memory", "mmap"):
            store = make_state_store(backend, np.zeros(3), n_rows=2,
                                     directory=tmp_path)
            with pytest.raises(ValueError, match="shape"):
                store.assign(np.zeros((3, 3)))
            store.close()


class TestMmapLifecycle:
    def test_close_unlinks_backing_file(self, tmp_path):
        store = MmapStateStore((4, 3), directory=tmp_path)
        path = store.path
        assert path.is_file()
        store.close()
        assert not path.exists()
        store.close()  # idempotent

    def test_gc_unlinks_on_abandonment(self, tmp_path):
        """An exception path that never reaches close() still cleans up
        once the store is collected."""
        store = MmapStateStore((4, 3), directory=tmp_path)
        path = store.path
        del store
        gc.collect()
        assert not path.exists()

    def test_sweep_failure_path_closes_store(self, tiny_preset):
        """The cell executor's finally clause must close the engine —
        and with it the mmap store — when the run raises."""
        prepared = prepare(tiny_preset, 3, seed=0)
        engine, algo = build_run(prepared, "skiptrain", total_rounds=8,
                                 state_backend="mmap")
        path = engine._store.path
        assert path.is_file()

        class Die(Exception):
            pass

        def hook(engine, t, history, last_eval):
            if t == 2:
                raise Die

        with pytest.raises(Die):
            try:
                engine.run(algo, hook=hook)
            finally:
                engine.close()
        assert not path.exists()

    def test_sigint_unlinks_at_interpreter_exit(self, tmp_path):
        """Ctrl-C mid-run: KeyboardInterrupt unwinds without close(),
        and the weakref.finalize guard unlinks the file on exit."""
        script = (
            "import signal, sys, time\n"
            "from repro.simulation.state_store import MmapStateStore\n"
            "store = MmapStateStore((64, 8), directory=sys.argv[1])\n"
            "print(store.path, flush=True)\n"
            "time.sleep(30)\n"
        )
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            mmap_path = Path(proc.stdout.readline().strip())
            assert mmap_path.is_file()
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # SIGINT → KeyboardInterrupt → interpreter exit runs finalizers
        deadline = time.monotonic() + 10
        while mmap_path.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not mmap_path.exists()
