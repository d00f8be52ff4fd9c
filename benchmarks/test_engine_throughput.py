"""Engine microbenchmarks: the per-round costs that determine how far
the simulator scales (these are true multi-round pytest benchmarks, not
one-shot experiment regenerations).

The ``test_rounds_*`` family measures whole-engine throughput
(rounds/sec) of the stacked engine at 16/64/256 nodes.
``test_vectorized_speedup_at_64_nodes`` turns the speedup the batched
multi-node path exists to deliver — over the serial row loop the test
suite keeps as its oracle (``tests/oracles.py``) — into an assertion
rather than a printout.

The ``test_eval_*`` / ``test_sweep_jobs_*`` family asserts that
serial and batched cross-node evaluation at 16/64/256 nodes, and
``--jobs 1`` and ``--jobs 4`` sweeps through the persistent pool, agree
exactly. Speed gates: batched eval must never be slower than serial at
64 nodes (quick mode) and must deliver ≥3× (full mode, ``slow``
marker); the pooled sweep must beat serial whenever the machine has ≥2
cores (quick mode) and deliver ≥1.3× on ≥4 cores (full mode).

The ``test_async_*`` family times the event-driven engine: activation
events under disjoint event batching and through the oracle's serial
event loop, with the batched engine gated at never-slower (quick) and
≥2× (full mode) over serial at 64 nodes — after asserting the two
trajectories are bit-identical.

``test_train_rounds_fleet`` is the fleet memory gate: a whole cell at
n=1024/4096/16384, in a fresh interpreter, stays under 2 GiB peak RSS.

The recorded perf trajectory is ``benchmarks/perf`` (``BENCHMARK.json``);
these tests only assert.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from tests import oracle_nn, oracles

from repro.core import DPSGD
from repro.data import make_classification_images
from repro.data.synthetic import SyntheticSpec
from repro.nn import gn_lenet_cifar10, small_mlp
from repro.nn.batched import BatchedEvaluator
from repro.nn.serialization import parameter_vector, set_parameter_vector
from repro.simulation import EngineConfig, build_engine
from repro.simulation.metrics import evaluate_state

from .conftest import run_once

SPEC = SyntheticSpec(num_classes=10, channels=1, image_size=8,
                     noise_std=2.0, prototype_resolution=4)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    ds, _ = make_classification_images(SPEC, 64, rng)
    return ds.x[:32], ds.y[:32]


def test_local_sgd_step_small_mlp(benchmark, batch):
    """One serial local training step of the bench model
    (forward+backward+update) on the oracle's layers (``tests/oracle_nn.py``)."""
    model = small_mlp(64, 10, hidden=24, rng=np.random.default_rng(0))
    net = oracle_nn.serial(model)
    loss = oracle_nn.CrossEntropyLoss()
    opt = oracle_nn.SGD(model.parameters(), lr=0.1)
    x, y = batch

    def step():
        logits = net.forward(x)
        loss.forward(logits, y)
        model.zero_grad()
        net.backward(loss.backward())
        opt.step()

    benchmark(step)


def test_local_sgd_step_paper_cnn(benchmark):
    """One serial local step of the paper's 89 834-param GN-LeNet on a
    real 32-sample CIFAR-shaped batch — the paper-scale per-step cost on
    the oracle's layers."""
    rng = np.random.default_rng(0)
    model = gn_lenet_cifar10(rng=rng)
    net = oracle_nn.serial(model)
    loss = oracle_nn.CrossEntropyLoss()
    opt = oracle_nn.SGD(model.parameters(), lr=0.1)
    x = rng.normal(size=(32, 3, 32, 32))
    y = rng.integers(0, 10, size=32)

    def step():
        logits = net.forward(x)
        loss.forward(logits, y)
        model.zero_grad()
        net.backward(loss.backward())
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


# -- cross-node evaluation: serial vs batched ---------------------------------

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


def _alternating_best(first, second, repeats: int = 3) -> tuple[float, float]:
    """Each of two warmed-up calls' fastest of ``repeats`` timed runs,
    the two alternating which goes first: a burst of load on the host
    slows one run of a side, never every run of one side."""
    times: tuple[list[float], list[float]] = ([], [])
    for r in range(repeats):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            (first, second)[side]()
            times[side].append(time.perf_counter() - t0)
    return min(times[0]), min(times[1])


def _eval_paths(n_nodes: int):
    """The serial and the batched full-state eval round of one state,
    after asserting they return exactly equal accuracies."""
    model, state, ds = _eval_setup(n_nodes)
    evaluator = BatchedEvaluator(model)

    node_by_node = oracles.NodeByNodeEvaluator(model)

    def serial():
        return evaluate_state(node_by_node, state, ds, batch_size=EVAL_BATCH)

    def batched():
        return evaluate_state(evaluator, state, ds, batch_size=EVAL_BATCH)

    assert serial() == batched()  # exact equality, mean and std
    return serial, batched


def _measure_eval(n_nodes: int) -> tuple[float, float]:
    """(serial_seconds, batched_seconds) per full-state eval round; the
    equality check in :func:`_eval_paths` is both paths' warm-up."""
    return _alternating_best(*_eval_paths(n_nodes))


@pytest.mark.parametrize("n_nodes", [16, 64, 256])
def test_eval_serial_vs_batched(n_nodes):
    """Full-state evaluation, serial per-node loop vs one stacked pass
    per test batch: exactly equal accuracies."""
    _eval_paths(n_nodes)


def test_batched_eval_not_slower_at_64_nodes():
    """Quick-mode CI gate: the batched evaluator must never lose to the
    serial loop at 64 nodes (the full ≥3× gate carries the ``slow``
    marker)."""
    serial_s, batched_s = _measure_eval(64)
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
    assert speedup >= 3.0, (
        f"batched eval too slow at 64 nodes: {speedup:.2f}x (need >=3x)"
    )


# -- async gossip engine: events/sec ------------------------------------------


def _async_engine(n_nodes: int, *, activations: int):
    """Bench-model async engine: same MLP/data scale as the sync
    throughput benches, tiny test set so evaluation stays negligible
    (once, at the end of the ``activations``-per-node horizon)."""
    from repro.simulation import AsyncGossipEngine, RngFactory, build_nodes
    from repro.topology import metropolis_hastings_weights, regular_neighbors

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
    config = EngineConfig(local_steps=8, learning_rate=0.2,
                          total_rounds=activations, eval_every=activations)
    return AsyncGossipEngine(
        model, nodes, metropolis_hastings_weights(graph), config, test,
        rng=rngs.stream("events"), eval_rng=rngs.stream("async-eval"),
    )


def test_async_events_throughput():
    """Activation events at 64 nodes, best of three runs — the
    per-event cost the in-place gossip rewrite attacks."""
    from repro.simulation import AsyncDPSGD

    def run():
        eng = _async_engine(64, activations=4)
        eng.run(AsyncDPSGD())
        return eng

    best = _best_of(run)
    assert best > 0.0


def _measure_async_events(n_nodes: int = 64, activations: int = 4):
    """(serial_seconds, batched_seconds) for one full async run — the
    oracle's serial event loop against the engine's event batching —
    after asserting the two end in bit-identical states and histories
    (the contract the conformance suite enforces in depth)."""
    from repro.simulation import AsyncDPSGD

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

    return _alternating_best(lambda: run(True), lambda: run(False))


def test_async_events_batched_not_slower_at_64_nodes():
    """Quick-mode CI gate: disjoint event batching must never lose to
    the oracle's serial event loop at 64 nodes (the full ≥2× gate carries the
    ``slow`` marker)."""
    serial_s, batched_s = _measure_async_events()
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
    serial_s, batched_s = _measure_async_events()
    speedup = serial_s / batched_s
    assert speedup >= 2.0, (
        f"batched async engine too slow at 64 nodes: {speedup:.2f}x "
        f"(need >=2x)"
    )


# -- fleet-scale cells: the node axis at 1024-16384 nodes ---------------------

#: A single dense float64 n×n intermediate at n=16384 is ~2147 MiB, so
#: staying under this cap proves the whole path is O(E + n·dim).
FLEET_RSS_CAP_MIB = 2048.0

#: One full fleet-preset sync cell (sparse NeighborList topology, stacked
#: trainer, in-memory state), then the interpreter's own peak RSS in MiB.
#: ``VmHWM`` belongs to the child's address space alone; its
#: ``ru_maxrss`` would start at the parent's high-water mark, which
#: the kernel carries over on exec.
FLEET_CELL = """
import sys
from repro.experiments.presets import fleet_preset
from repro.experiments.runner import build_run, prepare

preset = fleet_preset(int(sys.argv[1]))
prepared = prepare(preset, preset.degrees[0], seed=0)
engine, algo = build_run(prepared, "skiptrain", total_rounds=preset.total_rounds)
engine.run(algo)
with open("/proc/self/status") as status:
    [peak] = [line.split()[1] for line in status if line.startswith("VmHWM:")]
print(int(peak) / 1024)
"""


@pytest.mark.parametrize("n_nodes", [1024, 4096, 16384])
def test_train_rounds_fleet(n_nodes):
    """The fleet memory gate: a whole n=1024/4096/16384 sync cell must
    complete under quick CI settings with peak RSS an order of
    magnitude below the dense-n×n footprint. The cell runs in a fresh
    interpreter, so the gate reads its peak and not the high-water mark
    of every test this process ran before it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", FLEET_CELL, str(n_nodes)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    rss = float(done.stdout.split()[-1])
    assert rss < FLEET_RSS_CAP_MIB, (
        f"fleet cell at n={n_nodes} peaked at {rss:.0f} MiB — at or "
        f"above the {FLEET_RSS_CAP_MIB:.0f} MiB cap that rules out "
        f"dense n×n intermediates"
    )


# -- sweep cell parallelism: --jobs 1 vs --jobs 4 -----------------------------


def _measure_sweep_jobs(bench16_cifar, tmp_path, repeats=3):
    """(jobs1_s, jobs4_s) for an 8-cell plan executed serially vs
    on the persistent 4-worker pool, after asserting the
    two artifact directories are byte-identical (the --jobs contract).

    Each side runs ``repeats`` times into fresh directories, the two
    alternating which goes first, and reports its fastest run: load
    from elsewhere on the host then slows one run of a side, not the
    side."""
    import dataclasses

    from repro.experiments import build_plan, run_sweep
    from repro.experiments.artifacts import artifact_path

    # 64 rounds: stacked cells are short, and at 16 rounds the pool's
    # fork and per-worker preparation cost rivals the work it spreads
    preset = dataclasses.replace(bench16_cifar, total_rounds=64, eval_every=8,
                                 degrees=(3, 4))
    plan = build_plan(preset, ("skiptrain", "d-psgd"), degrees=(3, 4),
                      seeds=(0, 1))
    lookup = lambda name: preset  # noqa: E731

    times: dict[int, list[float]] = {1: [], 4: []}
    for r in range(repeats):
        for jobs in (1, 4) if r % 2 == 0 else (4, 1):
            t0 = time.perf_counter()
            run_sweep(plan, tmp_path / f"j{jobs}-{r}", jobs=jobs,
                      preset_lookup=lookup)
            times[jobs].append(time.perf_counter() - t0)
        for cell in plan:
            assert (artifact_path(tmp_path / f"j1-{r}", cell).read_bytes()
                    == artifact_path(tmp_path / f"j4-{r}", cell).read_bytes())
    return min(times[1]), min(times[4])


def test_sweep_jobs_wallclock(bench16_cifar, tmp_path):
    """The quick-mode sweep-parallelism gate: 8 cells (2 algorithms ×
    2 degrees × 2 seeds) through the persistent pool must beat serial
    wall-clock whenever the machine actually has cores to parallelise
    over — on 1 CPU workers time-slice and the pool can only tie, so
    the gate arms at ≥2 cores."""
    jobs1_s, jobs4_s = _measure_sweep_jobs(bench16_cifar, tmp_path)
    cpus = os.cpu_count() or 1
    speedup = jobs1_s / jobs4_s
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
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(f"need >=4 cores for the 1.3x gate, have {cpus}")
    jobs1_s, jobs4_s = _measure_sweep_jobs(bench16_cifar, tmp_path)
    speedup = jobs1_s / jobs4_s
    assert speedup > 1.3, (
        f"persistent pool under the 1.3x floor on {cpus} cores: "
        f"{jobs4_s:.2f}s vs {jobs1_s:.2f}s ({speedup:.2f}x)"
    )
