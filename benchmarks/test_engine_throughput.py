"""Engine microbenchmarks: the per-round costs that determine how far
the simulator scales (these are true multi-round pytest benchmarks, not
one-shot experiment regenerations).

The ``test_rounds_*`` family measures whole-engine throughput
(rounds/sec) of the stacked engine at 16/64/256 nodes.
``test_vectorized_speedup_at_64_nodes`` turns the speedup the batched
multi-node path exists to deliver — over the serial row loop the test
suite keeps as its oracle (``tests/oracles.py``) — into an assertion
rather than a printout.

The ``test_eval_*`` / ``test_sweep_jobs_*`` family is the *tracked*
baseline: serial vs batched cross-node evaluation at 16/64/256 nodes
and ``--jobs 1`` vs ``--jobs 4`` sweep wall-clock through the
persistent shared-memory pool, each recorded into
``BENCH_throughput.json`` (:func:`benchmarks.conftest.record_bench`) so
future PRs have a perf trajectory to regress against. Speed gates:
batched eval must never be slower than serial at 64 nodes (quick mode)
and must deliver ≥3× (full mode, ``slow`` marker); the pooled sweep
must beat serial whenever the machine has ≥2 cores (quick mode) and
deliver ≥1.3× on ≥4 cores (full mode).

The ``test_async_*`` family tracks the event-driven engine: activation
events per second under disjoint event batching and through the
oracle's serial event loop, with the batched engine gated at
never-slower (quick) and ≥2× (full mode) over serial at 64 nodes —
after asserting the two trajectories are bit-identical.
"""

import time

import numpy as np
import pytest
from tests import oracles

from repro.core import DPSGD
from repro.data import make_classification_images
from repro.data.synthetic import SyntheticSpec
from repro.nn import CrossEntropyLoss, SGD, gn_lenet_cifar10, small_mlp
from repro.nn.batched import BatchedEvaluator
from repro.nn.serialization import parameter_vector, set_parameter_vector
from repro.simulation import EngineConfig, build_engine
from repro.simulation.metrics import evaluate_state

from .conftest import record_bench, run_once

SPEC = SyntheticSpec(num_classes=10, channels=1, image_size=8,
                     noise_std=2.0, prototype_resolution=4)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    ds, _ = make_classification_images(SPEC, 64, rng)
    return ds.x[:32], ds.y[:32]


def test_local_sgd_step_small_mlp(benchmark, batch):
    """One local training step of the bench model (forward+backward+update)."""
    model = small_mlp(64, 10, hidden=24, rng=np.random.default_rng(0))
    loss = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=0.1)
    x, y = batch

    def step():
        logits = model(x)
        loss.forward(logits, y)
        model.zero_grad()
        model.backward(loss.backward())
        opt.step()

    benchmark(step)


def test_local_sgd_step_paper_cnn(benchmark):
    """One local step of the paper's 89 834-param GN-LeNet on a real
    32-sample CIFAR-shaped batch — the paper-scale per-step cost."""
    rng = np.random.default_rng(0)
    model = gn_lenet_cifar10(rng=rng)
    loss = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=0.1)
    x = rng.normal(size=(32, 3, 32, 32))
    y = rng.integers(0, 10, size=32)

    def step():
        logits = model(x)
        loss.forward(logits, y)
        model.zero_grad()
        model.backward(loss.backward())
        opt.step()

    benchmark(step)


def test_parameter_vector_roundtrip(benchmark):
    """Serialize + deserialize the paper CNN's parameters — the per-node
    cost of entering/leaving the shared state matrix each round."""
    model = gn_lenet_cifar10(rng=np.random.default_rng(0))
    buf = np.empty(model.num_parameters())

    def roundtrip():
        parameter_vector(model, out=buf)
        set_parameter_vector(model, buf)

    benchmark(roundtrip)


# -- whole-engine throughput: the stacked engine vs the serial oracle ---------

ENGINE_ROUNDS = 10


def _mlp_factory(rng: np.random.Generator):
    return small_mlp(64, 10, hidden=16, rng=rng)


def _throughput_engine(n_nodes: int, *, rounds: int = ENGINE_ROUNDS):
    """Bench-model engine sized so per-round training dominates: a tiny
    test set keeps the (identical-cost) final evaluation negligible."""
    cfg = EngineConfig(local_steps=8, learning_rate=0.2, total_rounds=rounds,
                       eval_every=10_000)
    return build_engine(SPEC, n_nodes, cfg, _mlp_factory, seed=0,
                        num_train=40 * n_nodes, num_test=32, batch_size=8)


@pytest.mark.parametrize("n_nodes", [16, 64, 256])
def test_rounds_vectorized(benchmark, n_nodes):
    """Batched multi-node engine: stacked GEMMs over all masked nodes."""
    eng = _throughput_engine(n_nodes)
    run_once(benchmark, lambda: eng.run(DPSGD(n_nodes)))


@pytest.mark.slow
def test_vectorized_speedup_at_64_nodes():
    """Acceptance gate: the stacked engine must deliver at least 2x
    the serial oracle's rounds/sec at 64 nodes (observed: ~4x). Best of
    three timed windows per engine so a scheduler stall on a loaded
    machine cannot sink an otherwise-green run; carries the ``slow``
    marker so quick `-m "not slow"` iteration loops skip the (timing-
    sensitive, multi-second) measurement."""

    def rounds_per_sec(oracle: bool) -> float:
        eng = _throughput_engine(64, rounds=8)
        if oracle:
            oracles.serial(eng)
        eng.run(DPSGD(64))  # warm-up: BLAS threads, allocator, caches
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            eng.run(DPSGD(64))
            best = min(best, time.perf_counter() - t0)
        return 8 / best

    serial = rounds_per_sec(True)
    vectorized = rounds_per_sec(False)
    record_bench("train_rounds_n64", {
        "n_nodes": 64,
        "serial_rounds_per_s": round(serial, 3),
        "vectorized_rounds_per_s": round(vectorized, 3),
        "speedup": round(vectorized / serial, 3),
    })
    assert vectorized >= 2.0 * serial, (
        f"vectorized engine too slow: {vectorized:.1f} vs serial "
        f"{serial:.1f} rounds/sec ({vectorized / serial:.2f}x, need >=2x)"
    )


def test_evaluation_throughput(benchmark, batch):
    """Accuracy evaluation of one node model on a 600-sample test set."""
    from repro.simulation.metrics import evaluate_model_vector

    rng = np.random.default_rng(0)
    model = small_mlp(64, 10, hidden=24, rng=rng)
    ds, _ = make_classification_images(SPEC, 600, rng)
    vec = parameter_vector(model)

    benchmark(lambda: evaluate_model_vector(model, vec, ds))


# -- cross-node evaluation: serial vs batched (tracked baseline) --------------

EVAL_TEST_SAMPLES = 600
# The bench model is ~100x smaller than the paper CNNs, so the eval
# batch is scaled down with it (the training benches do the same:
# batch_size=8) to preserve the paper-faithful ratio of per-batch
# compute to per-batch dispatch overhead that the batched evaluator
# attacks.
EVAL_BATCH = 64


def _eval_setup(n_nodes: int):
    """One bench-model workspace (the engine benches' ``_mlp_factory``
    architecture), an ``(n_nodes, dim)`` state of perturbed copies of
    it, and a 600-sample test set."""
    rng = np.random.default_rng(0)
    model = _mlp_factory(rng)
    ds, _ = make_classification_images(SPEC, EVAL_TEST_SAMPLES, rng)
    init = parameter_vector(model)
    state = init[None, :] + 0.05 * rng.normal(size=(n_nodes, init.size))
    return model, state, ds


def _best_of(fn, repeats: int = 3) -> float:
    """Best of ``repeats`` timed calls after one warm-up — a scheduler
    stall on a loaded machine cannot sink a measurement."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_eval(n_nodes: int) -> tuple[float, float]:
    """(serial_seconds, batched_seconds) per full-state eval round,
    after asserting the two paths return exactly equal accuracies."""
    model, state, ds = _eval_setup(n_nodes)
    evaluator = BatchedEvaluator(model)

    node_by_node = oracles.NodeByNodeEvaluator(model)

    def serial():
        return evaluate_state(node_by_node, state, ds, batch_size=EVAL_BATCH)

    def batched():
        return evaluate_state(evaluator, state, ds, batch_size=EVAL_BATCH)

    assert serial() == batched()  # exact equality, mean and std
    return _best_of(serial), _best_of(batched)


@pytest.mark.parametrize("n_nodes", [16, 64, 256])
def test_eval_serial_vs_batched(n_nodes):
    """The tracked eval baseline: full-state evaluation cost per round,
    serial per-node loop vs one stacked pass per test batch."""
    serial_s, batched_s = _measure_eval(n_nodes)
    record_bench(f"eval_n{n_nodes}", {
        "n_nodes": n_nodes,
        "test_samples": EVAL_TEST_SAMPLES,
        "serial_s": round(serial_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(serial_s / batched_s, 3),
    })


def test_batched_eval_not_slower_at_64_nodes():
    """Quick-mode CI gate: the batched evaluator must never lose to the
    serial loop at 64 nodes (the full ≥3× gate carries the ``slow``
    marker)."""
    serial_s, batched_s = _measure_eval(64)
    record_bench("eval_gate_n64", {
        "n_nodes": 64,
        "serial_s": round(serial_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(serial_s / batched_s, 3),
    })
    assert batched_s <= serial_s, (
        f"batched eval slower than serial at 64 nodes: "
        f"{batched_s:.4f}s vs {serial_s:.4f}s"
    )


@pytest.mark.slow
def test_batched_eval_speedup_at_64_nodes():
    """Acceptance gate: ≥3× faster evaluation at 64 nodes (observed:
    well above; the serial path pays 64 × n_batches Python dispatches
    per round, the batched path n_batches stacked GEMMs)."""
    serial_s, batched_s = _measure_eval(64)
    speedup = serial_s / batched_s
    record_bench("eval_speedup_n64", {
        "n_nodes": 64,
        "serial_s": round(serial_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 3),
    })
    assert speedup >= 3.0, (
        f"batched eval too slow at 64 nodes: {speedup:.2f}x (need >=3x)"
    )


# -- async gossip engine: events/sec (tracked baseline) -----------------------


def _async_engine(n_nodes: int, *, activations: int):
    """Bench-model async engine: same MLP/data scale as the sync
    throughput benches, tiny test set so evaluation stays negligible
    (once, at the end of the ``activations``-per-node horizon)."""
    from repro.simulation import AsyncGossipEngine, RngFactory, build_nodes
    from repro.topology import neighbor_lists, regular_neighbors

    from repro.data import shard_partition

    rngs = RngFactory(0)
    train, protos = make_classification_images(SPEC, 40 * n_nodes,
                                               rngs.stream("data"))
    test, _ = make_classification_images(SPEC, 32, rngs.stream("test"),
                                         prototypes=protos)
    parts = shard_partition(train.y, n_nodes, rng=rngs.stream("partition"))
    nodes = build_nodes(train, parts, 8, rngs)
    graph = regular_neighbors(n_nodes, 4, seed=0)
    model = _mlp_factory(rngs.stream("model"))
    return AsyncGossipEngine(
        model, nodes, neighbor_lists(graph), test,
        local_steps=8, learning_rate=0.2, rng=rngs.stream("events"),
        activations_per_node=activations, eval_every=n_nodes * activations,
        eval_rng=rngs.stream("async-eval"),
    )


def test_async_events_throughput():
    """The tracked async baseline: activation events per second at 64
    nodes — the per-event cost the in-place gossip rewrite attacks
    (recorded as ``async_events_per_sec`` in the quick-mode bench
    gate)."""
    from repro.simulation import AsyncDPSGD

    activations = 4
    events = 64 * activations

    def run():
        eng = _async_engine(64, activations=activations)
        eng.run(AsyncDPSGD())
        return eng

    best = _best_of(run)
    record_bench("async_events_per_sec", {
        "n_nodes": 64,
        "events": events,
        "best_s": round(best, 6),
        "events_per_s": round(events / best, 3),
    })
    assert best > 0.0


def _measure_async_events(n_nodes: int = 64, activations: int = 4):
    """(serial_seconds, batched_seconds) for one full async run — the
    oracle's serial event loop against the engine's event batching —
    after asserting the two end in bit-identical states and histories
    (the contract the conformance suite enforces in depth)."""
    from repro.simulation import AsyncDPSGD

    events = n_nodes * activations

    def run(oracle: bool):
        eng = _async_engine(n_nodes, activations=activations)
        if oracle:
            oracles.serial(eng)
        hist = eng.run(AsyncDPSGD())
        return eng, hist

    eng_s, hist_s = run(True)
    eng_b, hist_b = run(False)
    np.testing.assert_array_equal(eng_s.state, eng_b.state)
    assert repr(hist_s.records) == repr(hist_b.records)

    serial_s = _best_of(lambda: run(True))
    batched_s = _best_of(lambda: run(False))
    return serial_s, batched_s, events


def test_async_events_batched_not_slower_at_64_nodes():
    """Quick-mode CI gate: disjoint event batching must never lose to
    the oracle's serial event loop at 64 nodes (the full ≥2× gate carries the
    ``slow`` marker). Recorded as ``async_events_per_sec_batched``."""
    serial_s, batched_s, events = _measure_async_events()
    record_bench("async_events_per_sec_batched", {
        "n_nodes": 64,
        "events": events,
        "serial_s": round(serial_s, 6),
        "batched_s": round(batched_s, 6),
        "serial_events_per_s": round(events / serial_s, 3),
        "batched_events_per_s": round(events / batched_s, 3),
        "speedup": round(serial_s / batched_s, 3),
    })
    assert batched_s <= serial_s, (
        f"batched async engine slower than serial at 64 nodes: "
        f"{batched_s:.4f}s vs {serial_s:.4f}s"
    )


@pytest.mark.slow
def test_async_events_batched_speedup_at_64_nodes():
    """Acceptance gate: ≥2× events/sec from disjoint event batching at
    64 nodes (the serial loop pays one Python-level training pass per
    event; batching amortizes it into stacked passes per disjoint
    batch)."""
    serial_s, batched_s, events = _measure_async_events()
    speedup = serial_s / batched_s
    record_bench("async_events_speedup_n64", {
        "n_nodes": 64,
        "events": events,
        "serial_s": round(serial_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 3),
    })
    assert speedup >= 2.0, (
        f"batched async engine too slow at 64 nodes: {speedup:.2f}x "
        f"(need >=2x)"
    )


# -- fleet-scale cells: the node axis at 1024-16384 nodes (tracked) -----------

#: A single dense float64 n×n intermediate at n=16384 is ~2147 MiB, so
#: staying under this cap proves the whole path is O(E + n·dim).
FLEET_RSS_CAP_MIB = 2048.0


def _measure_fleet_cell(n_nodes: int):
    """(seconds, rounds) for one full fleet-preset sync cell — sparse
    NeighborList topology, stacked trainer, in-memory state."""
    from repro.experiments.presets import fleet_preset
    from repro.experiments.runner import build_run, prepare

    preset = fleet_preset(n_nodes)
    prepared = prepare(preset, preset.degrees[0], seed=0)
    engine, algo = build_run(prepared, "skiptrain",
                             total_rounds=preset.total_rounds)
    t0 = time.perf_counter()
    engine.run(algo)
    return time.perf_counter() - t0, preset.total_rounds


@pytest.mark.parametrize("n_nodes", [1024, 4096, 16384])
def test_train_rounds_fleet(n_nodes):
    """The tracked fleet baseline and memory gate: a whole n=1024/4096/
    16384 sync cell must complete under quick CI settings with peak RSS
    an order of magnitude below the dense-n×n footprint. Recorded as
    ``train_rounds_n{1024,4096,16384}`` — the scale trajectory the
    ROADMAP's 10k-1M fleet item regresses against."""
    from .conftest import peak_rss_mib

    elapsed, rounds = _measure_fleet_cell(n_nodes)
    record_bench(f"train_rounds_n{n_nodes}", {
        "n_nodes": n_nodes,
        "rounds": rounds,
        "vectorized": True,
        "cell_s": round(elapsed, 4),
        "rounds_per_s": round(rounds / elapsed, 3),
    })
    rss = peak_rss_mib()
    assert rss < FLEET_RSS_CAP_MIB, (
        f"fleet cell at n={n_nodes} peaked at {rss:.0f} MiB — at or "
        f"above the {FLEET_RSS_CAP_MIB:.0f} MiB cap that rules out "
        f"dense n×n intermediates"
    )


# -- sweep cell parallelism: --jobs 1 vs --jobs 4 (tracked baseline) ----------


def _measure_sweep_jobs(bench16_cifar, tmp_path):
    """(jobs1_s, jobs4_s, plan) for an 8-cell plan executed serially vs
    on the persistent 4-worker shared-memory pool, after asserting the
    two artifact directories are byte-identical (the --jobs contract)."""
    import dataclasses

    from repro.experiments import build_plan, run_sweep
    from repro.experiments.artifacts import artifact_path

    # 64 rounds: stacked cells are short, and at 16 rounds the pool's
    # fork and publish cost rivals the work it spreads
    preset = dataclasses.replace(bench16_cifar, total_rounds=64, eval_every=8,
                                 degrees=(3, 4))
    plan = build_plan(preset, ("skiptrain", "d-psgd"), degrees=(3, 4),
                      seeds=(0, 1))
    lookup = lambda name: preset  # noqa: E731

    t0 = time.perf_counter()
    run_sweep(plan, tmp_path / "j1", jobs=1, preset_lookup=lookup)
    jobs1_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_sweep(plan, tmp_path / "j4", jobs=4, preset_lookup=lookup)
    jobs4_s = time.perf_counter() - t0

    for cell in plan:
        assert (artifact_path(tmp_path / "j1", cell).read_bytes()
                == artifact_path(tmp_path / "j4", cell).read_bytes())
    return jobs1_s, jobs4_s, plan


def test_sweep_jobs_wallclock(bench16_cifar, tmp_path):
    """The tracked sweep-parallelism baseline and quick-mode CI gate:
    8 cells (2 algorithms × 2 degrees × 2 seeds) through the persistent
    pool must beat serial wall-clock whenever the machine actually has
    cores to parallelise over. The recorded ``cpus`` field keeps
    single-core measurements honest — on 1 CPU workers time-slice and
    the pool can only tie, so the gate arms at ≥2 cores."""
    import os

    jobs1_s, jobs4_s, plan = _measure_sweep_jobs(bench16_cifar, tmp_path)
    cpus = os.cpu_count() or 1
    speedup = jobs1_s / jobs4_s
    record_bench("sweep_jobs", {
        "cells": len(plan),
        "preset": plan[0].preset,
        "total_rounds": plan[0].total_rounds,
        "jobs": 4,
        "pool": "persistent",
        "cpus": cpus,
        "jobs1_s": round(jobs1_s, 4),
        "jobs4_s": round(jobs4_s, 4),
        "speedup": round(speedup, 3),
    })
    if cpus >= 2:
        assert speedup > 1.0, (
            f"persistent pool slower than serial on {cpus} cores: "
            f"{jobs4_s:.2f}s vs {jobs1_s:.2f}s ({speedup:.2f}x)"
        )


@pytest.mark.slow
def test_sweep_jobs_speedup_multicore(bench16_cifar, tmp_path):
    """Acceptance gate (full mode): on a machine with ≥4 cores the
    4-worker pool must cut 8-cell sweep wall-clock by ≥1.3× — the floor
    the persistent-pool rework ships against (per-cell dispatch plus
    one shared dataset prep leaves ample headroom below the ~4× ideal,
    but a regression to group-grained scheduling or per-worker re-prep
    would land under it)."""
    import os

    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(f"need >=4 cores for the 1.3x gate, have {cpus}")
    jobs1_s, jobs4_s, plan = _measure_sweep_jobs(bench16_cifar, tmp_path)
    speedup = jobs1_s / jobs4_s
    record_bench("sweep_jobs_full", {
        "cells": len(plan),
        "cpus": cpus,
        "jobs1_s": round(jobs1_s, 4),
        "jobs4_s": round(jobs4_s, 4),
        "speedup": round(speedup, 3),
    })
    assert speedup > 1.3, (
        f"persistent pool under the 1.3x floor on {cpus} cores: "
        f"{jobs4_s:.2f}s vs {jobs1_s:.2f}s ({speedup:.2f}x)"
    )
