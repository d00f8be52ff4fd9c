"""Row tiles on lanes (``repro.lanes``): the stacked trainer, the
gossip product and the bank's read-ahead.

Within a trainer call, laned ≡ unlaned ≡ the serial row loop is pinned
by ``tests/test_nn_batched.py::TestLanes``. Here: the tiled gossip
product is ``w @ x`` byte for byte, in place by column panels of any
width too, and the laned read-ahead the unsplit one, on splits forced
far below the work floor; a failing tile
surfaces only after every tile has finished; a trainer whose lane
threads ran in a parent trains again in a forked child (pool workers
and the serve daemon fork); a pool worker runs on its share of the
CPUs; and a paper-scale cell that splits writes the same artifact on
one CPU as on all of them.

The byte budget (``lanes.ROW_BUDGET``): more tiles than lanes run in
waves, tile t on lane t mod W; a lane's workspace holds one tile;
``row_bytes`` is what a row really adds to a lane's workspace; the
bank's read-ahead fills under the budget too; and a
stacked GN-LeNet call that needed ~3.7 GiB now trains under a 2 GiB
address-space limit.
"""

import dataclasses
import multiprocessing as mp
import os
import resource
import subprocess
import sys
import textwrap
import threading
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
from repro.nn import gn_lenet_cifar10, small_cnn, small_mlp
from repro.nn.batched import BatchedTrainer, row_bytes
from repro.nn.layers import AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Tanh
from repro.nn.layers.normalization import GroupNorm
from repro.nn.module import Sequential
from repro.nn.serialization import parameter_vector
from repro.simulation import RngFactory, batch_stream, build_nodes, node_bank
from repro.simulation.engine import gossip, gossip_panels

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

    def spy(rows, row_work, row_bytes=0):
        cuts.append(real(rows, row_work, row_bytes))
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
    @pytest.mark.parametrize(
        "layout", ["contiguous", "strided", "fortran", "memmap", "panels"]
    )
    def test_the_tiled_product_is_w_at_x_byte_for_byte(
        self, count, index_dtype, sort_indices, layout, monkeypatch, tmp_path
    ):
        rng = np.random.default_rng(count)
        cols = 7 if layout == "panels" else 9  # in place needs a square w
        w = _random_csr(rng, 7, cols, index_dtype, sort_indices)
        x = rng.normal(size=(cols, 6))
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
        # seven rows on five lanes: tiles of one row
        tiles = [7 * t // count for t in range(count + 1)]
        if layout == "panels":
            # in place, by panels of every width from one column to all
            for width in range(1, 7):
                monkeypatch.setattr(lanes, "ROW_BUDGET", 7 * 8 * width)
                got = x.copy()
                cuts.clear()
                gossip_panels(w, got)
                assert cuts == [tiles] * -(-6 // width)
                assert got.tobytes() == want.tobytes()
            return
        got = gossip(w, x)
        assert cuts == [tiles]
        assert type(got) is np.ndarray and got.flags.c_contiguous
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_tile_surfaces_after_every_tile_finished(failing, monkeypatch):
    """One tile's kernel raises at once while the other two still run:
    the error reaches the engine only after they are done, and the state
    is neither rebound nor written."""
    prepared = prepare(get_preset("cifar10-bench"), 3, seed=0)
    engine, _ = build_run(prepared, "d-psgd", total_rounds=2)
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


def test_the_read_ahead_keeps_its_tiles_under_the_byte_budget(monkeypatch):
    """A fill asks ``WORD_BYTES`` of the budget per stream word: under a
    budget of two rows' fill, seven nodes fill in tiles of at most two
    rows, in waves on two lanes, to the unsplit fill's bytes."""
    sizes, batch_size = [2, 3, 8, 9988, 8, 3, 8], 4
    whole = _rejecting_bank(batch_size, sizes, 5, 3)
    laned = _rejecting_bank(batch_size, sizes, 5, 3)
    want = whole.draw(np.arange(7), 1)
    words = whole._ahead_end.shape[1] * (2 * batch_size - 1)
    cuts = []
    real = lanes.tile_bounds

    def spy(rows, row_work, row_bytes=0):
        cuts.append(real(rows, row_work, row_bytes))
        return cuts[-1]

    monkeypatch.setattr(lanes, "ROW_BUDGET", 2 * words * node_bank.WORD_BYTES)
    monkeypatch.setattr(lanes, "lane_count", lambda: 2)
    monkeypatch.setattr(lanes, "tile_bounds", spy)
    got = laned.draw(np.arange(7), 1)
    assert cuts == [[0, 1, 3, 5, 7]]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    for name in ("consumed", "_ahead_idx", "_ahead_end", "_ahead_at"):
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
    8 reach the work floor and pass the byte budget, so every training
    round runs as two 128-row tiles — one after the other on one CPU,
    at once on two — or as one tile per CPU on three."""
    n, rounds = 256, 4
    preset = dataclasses.replace(
        cifar10_bench(), name=f"cifar10-bench-n{n}", n_nodes=n, degrees=(6,),
        num_train=192 * n, eval_every=2, eval_node_sample=32, total_rounds=rounds,
    )
    prepared = prepare(preset, 6, seed=0)
    (cell,) = build_plan(preset, ["d-psgd"], degrees=[6], seeds=[0], total_rounds=rounds)
    cuts: list[int] = []
    real = lanes.tile_bounds

    def spy(rows, row_work, row_bytes=0):
        bounds = real(rows, row_work, row_bytes)
        if sys._getframe(1).f_code.co_name == "_train_uniform":  # gossip splits too
            cuts.append(len(bounds) - 1)
        return bounds

    monkeypatch.setattr(lanes, "tile_bounds", spy)
    artifacts, tiles = [], []
    for mask in ([cpus[0]], cpus):
        os.sched_setaffinity(0, mask)
        cuts.clear()
        out = tmp_path / f"cpus{len(mask)}"
        run_cell(preset, cell, out, prepared=prepared)
        artifacts.append(artifact_path(out, cell).read_bytes())
        tiles.append(max(cuts))
    assert artifacts[0] == artifacts[1]
    assert tiles == [2, max(2, min(len(cpus), 3))]


class TestWaves:
    """:func:`lanes.run_tiles` with more tiles than lanes."""

    @pytest.mark.parametrize(("tiles", "count"), [(6, 2), (7, 3), (5, 1), (3, 8)])
    def test_tile_t_runs_on_lane_t_mod_w_and_each_lane_in_order(
        self, tiles, count, monkeypatch
    ):
        monkeypatch.setattr(lanes, "lane_count", lambda: count)
        seen = []

        def fn(lane, lo, hi):
            seen.append((lane, lo, threading.get_ident()))
            time.sleep(0.002)
            return lo * 10 + hi

        got = lanes.run_tiles(fn, list(range(tiles + 1)))
        assert got == [t * 10 + t + 1 for t in range(tiles)]  # in tile order
        width = min(count, tiles)
        assert sorted((t, lane) for lane, t, _ in seen) == [
            (t, t % width) for t in range(tiles)
        ]
        threads = set()
        for w in range(width):
            mine = [(t, thread) for lane, t, thread in seen if lane == w]
            assert [t for t, _ in mine] == list(range(w, tiles, width))
            assert len({thread for _, thread in mine}) == 1
            threads |= {thread for _, thread in mine}
        assert {thread for lane, _, thread in seen if lane == 0} == {
            threading.get_ident()
        }
        assert len(threads) == width

    def test_no_more_lanes_run_at_once_than_the_lane_count(self, monkeypatch):
        monkeypatch.setattr(lanes, "lane_count", lambda: 3)
        lock, running, most = threading.Lock(), [0], [0]

        def fn(lane, lo, hi):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.01)
            with lock:
                running[0] -= 1

        lanes.run_tiles(fn, list(range(13)))
        assert most[0] <= 3

    def test_a_trainer_builds_no_more_lanes_than_the_lane_count(self, monkeypatch):
        """Twelve one-row tiles on three lanes: four waves, three lanes."""
        model = small_mlp(16, 4, hidden=8, rng=np.random.default_rng(50))
        rng = np.random.default_rng(51)
        state = np.tile(parameter_vector(model), (12, 1))
        x, y = rng.normal(size=(30, 16)), rng.integers(0, 4, size=30)
        idx, k = rng.integers(0, 30, size=(12, 2, 3)), np.full(12, 3)
        want = state.copy()
        want_losses = BatchedTrainer(model, lr=0.1).train_rows(
            want, np.arange(12), x, y, idx, k
        )
        cuts = _force(monkeypatch, 3)
        monkeypatch.setattr(lanes, "ROW_BUDGET", 1)
        trainer = BatchedTrainer(model, lr=0.1)
        losses = trainer.train_rows(state, np.arange(12), x, y, idx, k)
        assert cuts == [list(range(13))]
        assert len(trainer._lanes) == 3
        assert state.tobytes() == want.tobytes()
        assert losses.tobytes() == want_losses.tobytes()

    @pytest.mark.parametrize("failing", [4, 5])
    def test_a_tile_failing_in_a_later_wave_surfaces_after_every_lane_stopped(
        self, failing, monkeypatch
    ):
        """Eight tiles on two lanes; tile 4 (lane 0's third) or 5 (lane
        1's third) fails. The failing lane stops there, the other runs
        all its tiles, and both are done before the error is raised."""
        monkeypatch.setattr(lanes, "lane_count", lambda: 2)
        finished = []

        def fn(lane, lo, hi):
            if lo == failing:
                raise RuntimeError(f"tile {lo} failed")
            time.sleep(0.05)
            finished.append(lo)

        with pytest.raises(RuntimeError, match=f"tile {failing} failed"):
            lanes.run_tiles(fn, list(range(9)))
        mine = failing % 2
        assert sorted(finished) == sorted(
            [t for t in range(8) if t % 2 != mine] + list(range(mine, failing, 2))
        )


class TestRowBudget:
    """How :func:`lanes.tile_bounds` cuts a call by bytes."""

    BENCH, FLEET = 26_832, 3_328  # row_bytes at width 8 and 4

    def test_calls_without_row_bytes_tile_as_by_work_alone(self, monkeypatch):
        monkeypatch.setattr(lanes, "lane_count", lambda: 2)
        assert lanes.tile_bounds(16384, 172 * 4) == [0, 8192, 16384]
        monkeypatch.setattr(lanes, "lane_count", lambda: pytest.fail("probed"))
        assert lanes.tile_bounds(32, 1810 * 8, self.BENCH) == [0, 32]

    @pytest.mark.parametrize(
        ("count", "rows", "row_work", "nbytes", "tiles"),
        [
            (2, 256, 1810 * 8, BENCH, 2),  # sync-paper256: two 128-row tiles
            (1, 256, 1810 * 8, BENCH, 2),  # one lane: two waves
            (3, 256, 1810 * 8, BENCH, 3),  # the work floor's three tiles fit
            (2, 16384, 172 * 4, FLEET, 14),  # the fleet: seven waves
            (1, 16384, 172 * 4, FLEET, 14),  # 1,260 rows fit: fourteen waves
            (2, 13000, 172 * 4, FLEET, 12),  # eleven fit, rounded to the lanes
            (3, 13000, 172 * 4, FLEET, 12),
            (2, 24, 89834 * 32, 164_042_064, 24),  # GN-LeNet: a row a tile
            (2, 3, 172 * 4, 3 << 20, 3),  # fewer rows than a rounded count
        ],
    )
    def test_tiles_fit_the_budget_in_balanced_waves(
        self, count, rows, row_work, nbytes, tiles, monkeypatch
    ):
        monkeypatch.setattr(lanes, "lane_count", lambda: count)
        bounds = lanes.tile_bounds(rows, row_work, nbytes)
        assert len(bounds) - 1 == tiles
        assert bounds[0] == 0 and bounds[-1] == rows
        sizes = np.diff(bounds)
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
        assert sizes.max() * nbytes <= max(lanes.ROW_BUDGET, nbytes)
        assert tiles % min(count, tiles) == 0 or tiles == rows


def _avg_pooled(rng):
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng), ReLU(), AvgPool2d(2),
        Conv2d(4, 4, 3, rng=rng), Tanh(), Flatten(), Linear(16, 5, rng=rng),
    )


def _conv_groupnorm(rng):
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng), GroupNorm(2, 4), ReLU(), MaxPool2d(2),
        Conv2d(4, 6, 3, padding=1, rng=rng), GroupNorm(3, 6), ReLU(),
        Flatten(), Linear(6 * 4 * 4, 10, rng=rng),
    )


def _held(lane):
    return sum(flat.nbytes for flat in lane.workspace._flat.values())


@pytest.mark.parametrize(
    ("model", "width", "sample", "want"),
    [
        (lambda rng: small_mlp(64, 10, hidden=24, rng=rng), 8, (1, 8, 8), 26_832),
        (lambda rng: small_mlp(16, 4, hidden=8, rng=rng), 4, (1, 4, 4), 3_328),
        (_conv_groupnorm, 4, (1, 8, 8), 82_656),
        (lambda rng: small_cnn(1, 8, 10, rng=rng), 5, (1, 8, 8), 63_360),
        (_avg_pooled, 4, (1, 8, 8), 41_576),
        (gn_lenet_cifar10, 32, (3, 32, 32), 164_042_064),
    ],
    ids=["bench-mlp", "fleet-mlp", "conv-groupnorm", "max-pooled", "avg-pooled", "gn-lenet"],
)
def test_row_bytes_is_what_a_row_adds_to_a_lane_workspace(model, width, sample, want):
    """The prediction against a lane's workspace after a real call of
    one row, then of three, so it cannot drift from the layers."""
    rng = np.random.default_rng(52)
    model = model(rng)
    rb = row_bytes(model, width, sample)
    assert rb == want
    x = rng.normal(size=(40, *sample))
    y = rng.integers(0, 4, size=40)
    trainer = BatchedTrainer(model, lr=0.01)
    for rows in (1, 3) if rb < lanes.ROW_BUDGET else (1,):
        state = np.tile(parameter_vector(model), (rows, 1))
        idx = rng.integers(0, 40, size=(rows, 1, width))
        trainer.train_rows(state, np.arange(rows), x, y, idx, np.full(rows, width))
        assert _held(trainer._lanes[0]) == rows * rb


@pytest.mark.parametrize("budget", [None, 1000])
def test_a_fleet_sized_call_leaves_one_tile_in_each_lane(budget, monkeypatch):
    """16,384 fleet-MLP rows on two lanes: each lane's workspace ends
    at most one budget's worth (or one row, when a row outgrows the
    budget), where it used to hold half the call."""
    monkeypatch.setattr(lanes, "lane_count", lambda: 2)
    if budget is not None:
        monkeypatch.setattr(lanes, "ROW_BUDGET", budget)
    rng = np.random.default_rng(53)
    model = small_mlp(16, 4, hidden=8, rng=rng)
    rows = 16384
    state = np.tile(parameter_vector(model), (rows, 1))
    x, y = rng.normal(size=(64, 1, 4, 4)), rng.integers(0, 4, size=64)
    idx = rng.integers(0, 64, size=(rows, 1, 4))
    trainer = BatchedTrainer(model, lr=0.2)
    trainer.train_rows(state, np.arange(rows), x, y, idx, np.full(rows, 4))
    rb = row_bytes(model, 4, (1, 4, 4))
    assert len(trainer._lanes) == 2
    for lane in trainer._lanes.values():
        assert 0 < _held(lane) <= max(lanes.ROW_BUDGET, rb)


@pytest.mark.slow
def test_a_stacked_gn_lenet_call_trains_under_a_2_gib_address_space(cpus):
    """24 GN-LeNet rows at batch 32, one local step, in a fresh
    interpreter limited to 2 GiB of address space on at most two CPUs.
    Whole tiles of 12 rows would need 2 x 12 x 156 MiB; one row per tile
    needs 156 MiB per lane."""
    script = textwrap.dedent(
        """
        import numpy as np
        from repro.nn import gn_lenet_cifar10
        from repro.nn.batched import BatchedTrainer
        from repro.nn.serialization import parameter_vector

        rng = np.random.default_rng(0)
        model = gn_lenet_cifar10(rng)
        rows = 24
        state = np.tile(parameter_vector(model), (rows, 1))
        x = rng.normal(size=(64, 3, 32, 32))
        y = rng.integers(0, 10, size=64)
        idx = rng.integers(0, 64, size=(rows, 1, 32))
        losses = BatchedTrainer(model, lr=0.1).train_rows(
            state, np.arange(rows), x, y, idx, np.full(rows, 32)
        )
        assert np.isfinite(losses).all()
        print("trained", rows)
        """
    )

    def limit():
        os.sched_setaffinity(0, cpus[:2])
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(
        os.environ, PYTHONPATH=os.path.abspath(src),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", script], preexec_fn=limit, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "trained 24" in done.stdout
