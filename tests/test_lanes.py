"""The stacked trainer's lanes across process boundaries.

Within a call, laned ≡ unlaned ≡ the serial row loop is pinned by
``tests/test_nn_batched.py::TestLanes``. Here: a trainer whose lane
threads ran in a parent trains again in a forked child (pool workers
and the serve daemon fork); a pool worker trains on its share of the
CPUs; and a paper-scale cell that splits writes the same artifact on
one CPU as on all of them.
"""

import dataclasses
import multiprocessing as mp
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import (
    PersistentPool,
    artifact_path,
    build_plan,
    cifar10_bench,
    prepare,
    run_cell,
)
from repro.nn import batched, small_mlp
from repro.nn.batched import BatchedTrainer
from repro.nn.serialization import parameter_vector

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


def test_a_trainer_whose_lanes_ran_trains_again_in_a_forked_child(monkeypatch):
    """The child inherits the lane executor's bookkeeping but not its
    threads; without forgetting it at the fork the child's first split
    would wait on them forever."""
    monkeypatch.setattr(batched, "_MIN_TILE_WORK", 0)
    monkeypatch.setattr(batched, "lane_count", lambda: 2)
    rng = np.random.default_rng(40)
    model = small_mlp(64, 10, hidden=24, rng=rng)
    state = np.tile(parameter_vector(model), (6, 1))
    state += 0.05 * rng.normal(size=state.shape)
    x, y = rng.normal(size=(40, 64)), rng.integers(0, 10, size=40)
    ids, k = np.arange(6), np.full(6, 5)
    first, second = rng.integers(0, 40, size=(2, 6, 2, 5))
    trainer = BatchedTrainer(model, lr=0.1)
    trainer.train_rows(state, ids, x, y, first, k)
    assert batched._lane_threads is not None

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
    assert batched.lane_count() == len(two)
    with PersistentPool(jobs, lambda cell: batched.lane_count()) as pool:
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
    real = batched._tile_bounds

    def spy(rows, row_work):
        bounds = real(rows, row_work)
        cuts.append(len(bounds) - 1)
        return bounds

    monkeypatch.setattr(batched, "_tile_bounds", spy)
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
