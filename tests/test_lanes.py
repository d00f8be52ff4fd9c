"""Row tiles on lanes (``repro.lanes``): the stacked trainer, the
gossip product and the bank's read-ahead.

Within a trainer call, laned ≡ unlaned ≡ the serial row loop is pinned
by ``tests/test_nn_batched.py::TestLanes``. Here: the tiled gossip
product is ``w @ x`` byte for byte and the laned read-ahead the unsplit
one, on splits forced far below the work floor; a failing tile
surfaces only after every tile has finished; a trainer whose lane
threads ran in a parent trains again in a forked child (pool workers
and the serve daemon fork); a pool worker runs on its share of the
CPUs; and a paper-scale cell that splits writes the same artifact on
one CPU as on all of them.
"""

import dataclasses
import multiprocessing as mp
import os
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro import lanes
from repro.data import ArrayDataset
from repro.experiments import (
    PersistentPool,
    artifact_path,
    build_plan,
    build_run,
    cifar10_bench,
    get_preset,
    prepare,
    run_cell,
)
from repro.nn import small_mlp
from repro.nn.batched import BatchedTrainer
from repro.nn.serialization import parameter_vector
from repro.simulation import RngFactory, batch_stream, build_nodes
from repro.simulation.engine import gossip

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods() or not hasattr(os, "sched_setaffinity"),
    reason="needs the fork start method and an affinity mask",
)


@pytest.fixture
def cpus():
    """This process's CPUs; the test may narrow the mask, and gets it
    back afterwards."""
    mask = os.sched_getaffinity(0)
    yield sorted(mask)
    os.sched_setaffinity(0, mask)


def _force(monkeypatch, count):
    """Split every call ``count`` ways, whatever its work; return the
    bounds each call was cut at."""
    cuts = []
    real = lanes.tile_bounds

    def spy(rows, row_work):
        cuts.append(real(rows, row_work))
        return cuts[-1]

    monkeypatch.setattr(lanes, "MIN_TILE_WORK", 0)
    monkeypatch.setattr(lanes, "lane_count", lambda: count)
    monkeypatch.setattr(lanes, "tile_bounds", spy)
    return cuts


def _random_csr(rng, rows, cols, index_dtype, sort_indices):
    """A CSR matrix with empty rows; its index arrays of
    ``index_dtype``, its column indices shuffled within each row unless
    ``sort_indices``."""
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
    dense[rng.random(rows) < 0.3] = 0.0
    w = sp.csr_matrix(dense)
    indptr, indices, data = w.indptr, w.indices.copy(), w.data.copy()
    if not sort_indices:
        for lo, hi in zip(indptr, indptr[1:]):
            order = lo + rng.permutation(hi - lo)
            indices[lo:hi], data[lo:hi] = indices[order], data[order]
    w = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
    # the constructor narrows the index arrays; widen them after it
    w.indptr, w.indices = indptr.astype(index_dtype), indices.astype(index_dtype)
    assert w.has_sorted_indices == sort_indices or not w.nnz
    return w


class TestTiledGossip:
    """:func:`~repro.simulation.engine.gossip` against ``w @ x``."""

    @pytest.mark.parametrize("count", [2, 3, 5])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("sort_indices", [True, False], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran", "memmap"])
    def test_the_tiled_product_is_w_at_x_byte_for_byte(
        self, count, index_dtype, sort_indices, layout, monkeypatch, tmp_path
    ):
        rng = np.random.default_rng(count)
        w = _random_csr(rng, 7, 9, index_dtype, sort_indices)
        x = rng.normal(size=(9, 6))
        if layout == "strided":
            x = rng.normal(size=(9, 12))[:, ::2]
        elif layout == "fortran":
            x = np.asfortranarray(x)
        elif layout == "memmap":
            mapped = np.memmap(tmp_path / "x.bin", dtype=np.float64, mode="w+", shape=x.shape)
            mapped[:] = x
            x = mapped
        want = w @ x
        cuts = _force(monkeypatch, count)
        got = gossip(w, x)
        # seven rows on five lanes: tiles of one row
        assert cuts == [[7 * t // count for t in range(count + 1)]]
        assert type(got) is np.ndarray and got.flags.c_contiguous
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_tile_surfaces_after_every_tile_finished(failing, monkeypatch):
    """One tile's kernel raises at once while the other two still run:
    the error reaches the engine only after they are done, and the state
    is neither rebound nor written."""
    prepared = prepare(get_preset("cifar10-bench"), 3, seed=0)
    engine, _ = build_run(prepared, "d-psgd", total_rounds=2, vectorized=True)
    before, held = engine.state.copy(), engine.state
    indptr = engine.mixing.indptr
    tile_at = {int(indptr[len(held) * t // 3]): t for t in range(3)}
    finished = []
    real = _sparsetools.csr_matvecs

    def kernel(n_row, n_col, n_vecs, indptr_slice, *rest):
        tile = tile_at[int(indptr_slice[0])]
        if tile == failing:
            raise RuntimeError(f"tile {tile} failed")
        time.sleep(0.2)
        real(n_row, n_col, n_vecs, indptr_slice, *rest)
        finished.append(tile)

    monkeypatch.setattr(_sparsetools, "csr_matvecs", kernel)
    _force(monkeypatch, 3)
    with pytest.raises(RuntimeError, match=f"tile {failing} failed"):
        engine._aggregate(False, 1)
    assert sorted(finished) == sorted({0, 1, 2} - {failing})
    assert engine.state is held
    assert engine.state.tobytes() == before.tobytes()


def _rejecting_bank(batch_size, sizes, seed, rejecting):
    """A bank over ``sizes`` whose node ``rejecting`` stands on a word
    its first bounded draw rejects (numpy then takes another word, which
    the array sampler leaves to :func:`batch_stream.replay`)."""
    rng = np.random.default_rng(0)
    total = int(np.sum(sizes))
    partition = np.split(rng.permutation(total), np.cumsum(sizes)[:-1])
    train = ArrayDataset(rng.normal(size=(total, 1)), rng.integers(0, 4, size=total), 4)
    bank = build_nodes(train, partition, batch_size, RngFactory(seed))
    bound = sizes[rejecting] - int(bank.k[rejecting]) + 1
    key, threshold = bank.keys[rejecting : rejecting + 1], (1 << 32) % bound
    at, chunk = None, 1 << 19
    for base in range(0, 1 << 24, chunk):
        words = batch_stream.stream_words(key, np.array([base]), np.arange(chunk)[None, :])[0]
        hits = np.flatnonzero(
            (words * np.uint64(bound)) & np.uint64(0xFFFFFFFF) < np.uint64(threshold)
        )
        if hits.size:
            at = base + int(hits[0])
            break
    assert at is not None, "no rejecting word in 2**24: pick another seed"
    state = bank.state_dict()
    consumed = np.zeros(len(sizes), dtype=np.int64)
    consumed[rejecting] = at
    state["node_rng"] = batch_stream.pack_states(bank.keys, consumed)
    bank.load_state_dict(state)
    return bank


@pytest.mark.parametrize("count", [2, 3, 5])
def test_the_laned_read_ahead_is_the_unsplit_one(count, monkeypatch):
    """Seven nodes of batch widths 2-4, so tiles differ in their widest
    row, and node 3 replays a Lemire rejection through numpy in a tile
    other than the first."""
    sizes, batch_size, rejecting = [2, 3, 8, 9988, 8, 3, 8], 4, 3
    whole = _rejecting_bank(batch_size, sizes, 5, rejecting)
    laned = _rejecting_bank(batch_size, sizes, 5, rejecting)
    replayed = []
    replay = batch_stream.replay
    monkeypatch.setattr(
        batch_stream, "replay",
        lambda key, start, *rest: replayed.append(int(start)) or replay(key, start, *rest),
    )
    draws = [(np.arange(7), 1), (np.array([6, 3, 0]), 2), (np.arange(7), 3)]
    want = [whole.draw(ids, steps) for ids, steps in draws]
    assert len(replayed) == 1
    cuts = _force(monkeypatch, count)
    got = [laned.draw(ids, steps) for ids, steps in draws]
    assert len(replayed) == 2
    first_fill = cuts[0]
    assert first_fill[1] <= rejecting  # the replayed row is not in tile 0
    for (idx, k), (want_idx, want_k) in zip(got, want):
        assert idx.tobytes() == want_idx.tobytes() and k.tobytes() == want_k.tobytes()
    for name in ("consumed", "local_steps_done", "_ahead_idx", "_ahead_end", "_ahead_at"):
        assert getattr(laned, name).tobytes() == getattr(whole, name).tobytes(), name


def test_a_trainer_whose_lanes_ran_trains_again_in_a_forked_child(monkeypatch):
    """The child inherits the lane executor's bookkeeping but not its
    threads; without forgetting it at the fork the child's first split
    would wait on them forever."""
    monkeypatch.setattr(lanes, "MIN_TILE_WORK", 0)
    monkeypatch.setattr(lanes, "lane_count", lambda: 2)
    rng = np.random.default_rng(40)
    model = small_mlp(64, 10, hidden=24, rng=rng)
    state = np.tile(parameter_vector(model), (6, 1))
    state += 0.05 * rng.normal(size=state.shape)
    x, y = rng.normal(size=(40, 64)), rng.integers(0, 10, size=40)
    ids, k = np.arange(6), np.full(6, 5)
    first, second = rng.integers(0, 40, size=(2, 6, 2, 5))
    trainer = BatchedTrainer(model, lr=0.1)
    trainer.train_rows(state, ids, x, y, first, k)
    assert lanes._lane_threads is not None

    def child(conn):
        trainer.train_rows(state, ids, x, y, second, k)
        conn.send_bytes(state.tobytes())

    ctx = mp.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    process = ctx.Process(target=child, args=(writer,))
    process.start()
    writer.close()
    try:
        finished = reader.poll(30)
        got = reader.recv_bytes() if finished else None
    finally:
        process.kill()
        process.join()
    assert finished, "the forked child never finished its laned call"
    trainer.train_rows(state, ids, x, y, second, k)
    assert got == state.tobytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_pool_worker_trains_on_its_share_of_the_cpus(jobs, cpus):
    """On a two-CPU mask: one lane per worker of two, both CPUs for a
    lone worker — and for the process that runs its cells in-process."""
    two = cpus[:2]
    os.sched_setaffinity(0, two)
    assert lanes.lane_count() == len(two)
    with PersistentPool(jobs, lambda cell: lanes.lane_count()) as pool:
        for at in range(jobs):
            pool.submit((SimpleNamespace(cell_id=f"cell{at}"),))
        pool.close_intake()
        results = [pool.next_result(timeout=30) for _ in range(jobs)]
    assert None not in results, "a pool worker never answered"
    assert [lanes for _, lanes in results] == [{1: len(two), 2: 1}[jobs]] * jobs


def test_a_paper_scale_cell_is_the_same_on_one_cpu_and_on_all(cpus, tmp_path, monkeypatch):
    """The ``sync-paper256`` cell's shape: 256 bench-MLP rows of width
    8 reach the work floor, so every training round splits once the
    mask has a second CPU."""
    n, rounds = 256, 4
    preset = dataclasses.replace(
        cifar10_bench(), name=f"cifar10-bench-n{n}", n_nodes=n, degrees=(6,),
        num_train=192 * n, eval_every=2, eval_node_sample=32, total_rounds=rounds,
    )
    prepared = prepare(preset, 6, seed=0)
    (cell,) = build_plan(preset, ["d-psgd"], degrees=[6], seeds=[0], total_rounds=rounds)
    cuts: list[int] = []
    real = lanes.tile_bounds

    def spy(rows, row_work):
        bounds = real(rows, row_work)
        if sys._getframe(1).f_code.co_name == "_train_tiles":  # gossip splits too
            cuts.append(len(bounds) - 1)
        return bounds

    monkeypatch.setattr(lanes, "tile_bounds", spy)
    artifacts, tiles = [], []
    for mask in ([cpus[0]], cpus):
        os.sched_setaffinity(0, mask)
        cuts.clear()
        out = tmp_path / f"cpus{len(mask)}"
        run_cell(preset, cell, out, prepared=prepared, vectorized=True)
        artifacts.append(artifact_path(out, cell).read_bytes())
        tiles.append(max(cuts))
    assert artifacts[0] == artifacts[1]
    assert tiles == [1, min(len(cpus), 3)]
