"""Raw-artifact byte pins across the node data plane.

``tests/golden/artifact_digests.json`` holds the SHA-256 of raw cell
artifacts. Four were recorded from the tree *before* the columnar
``NodeBank`` replaced the per-node ``Node``/``DataLoader`` objects:

* ``fleet-vectorized`` — ``n1024-fleet`` skiptrain, degree 4, seed 0,
  vectorized;
* ``bench-serial-steps10`` — the 32-node ``cifar10-bench`` preset
  (``local_steps=10``) cut to 24 rounds, written by the serial loops
  of ``tests/oracles.py``;
* ``ragged-serial`` — a cell whose nodes hold 12 or 13 samples against
  ``batch_size=13``, so some nodes draw ``k_i < batch_size`` and the
  stacked trainer has to group rows by ``k`` (also written by the
  serial loops);
* ``churn-async-vectorized`` — the ``churn-async`` scenario on the
  vectorized event engine.

Two more were recorded from the tree *before* the bank's per-node
``Generator.choice`` calls were replaced by the vectorized sampler:

* ``fleet16384-vectorized`` — ``n16384-fleet`` skiptrain, degree 4,
  seed 0, 12 rounds, vectorized (the cell of the ``sync-fleet16384``
  benchmark workload; it is run once more on one CPU, in a child
  process, against the same pin);
* ``femnist-writer-vectorized`` — the 32-node ``femnist-bench`` preset
  (writer partition: every node holds a different ``n_i``, 149–180
  samples; ``local_steps=7``) cut to 32 rounds, vectorized.

Three more were recorded from the tree *before* the stacked local step
got its gradient plane, fused optimizer pass and in-place rows — each
reaches a part of :class:`~repro.nn.batched.BatchedTrainer` no other
pinned cell does:

* ``conv-groupnorm-vectorized`` — 8 nodes training a two-stage
  conv + GroupNorm net (conv/GN gradients, and a first conv whose
  input gradient nothing reads);
* ``weight-decay-vectorized`` — a ``cifar10-bench`` d-psgd cell with
  ``weight_decay=0.01`` (every row trains every round);
* ``constrained-scattered-vectorized`` — ``cifar10-bench``
  ``skiptrain-constrained``, whose budget-driven masks train a
  scattered subset of 15–28 of the 32 rows each training round.

The batch-stream contract (one ``choice(n_i, k_i, replace=False)`` per
local step off ``node_stream("batch", i)``, node-major) and the
slice-for-slice arithmetic of the stacked step are what these bytes
depend on; any change to how batches are drawn, gathered or trained on
moves them.

Two more were recorded from the tree *before* ``NeighborList`` became
the only topology representation and masked mixing took its graph from
the prepared experiment — the sync cells whose mixing the engine masks
per round (``masked_mixing``):

* ``churn-crash-vectorized`` — the registered ``churn-crash`` scenario
  (leaves, a re-enrollment and a crash window over the static graph);
* ``dynamic-periodic-churn-vectorized`` — ``churn-ramp``'s joins over a
  graph rewired every 4 rounds (a ``dataclasses.replace`` of its
  ``TopologySpec``; masked weights re-derived per round from the
  epoch's graph).

Two more were recorded from the tree *before* the stacked loss kernel
started writing into lent buffers and picking through one flat index —
the async engine's event batches (1–3 scattered rows per call) reach
the trainer's small-block paths no sync cell does:

* ``ragged-async-vectorized`` — an ``async-skiptrain`` cell of the
  ragged preset: event batches of scattered ids whose widths are 12 and
  13, so the width split *and* the gather/scatter path run under the
  async engine;
* ``femnist-async-vectorized`` — an ``async-skiptrain`` cell of
  ``femnist-bench`` (16-class head, ``local_steps=7``, writer
  partition) cut to 8 activations per node.

The four async pins (these two, ``churn-async-vectorized`` and
``dynamic-periodic-async-vectorized``) were re-recorded once when the
``-async`` preset aliases were deleted: each cell now names the sync
preset it always ran on, and its artifact differs from the old one in
``cell.preset`` alone.

Two more were recorded from the tree *before* the gossip product and
the bank's read-ahead were cut into row tiles — cells large enough for
both to split on a multi-CPU host, through the two products the sync
engine's aggregation makes:

* ``churn-crash-fleet4096-vectorized`` — the ``churn-crash`` scenario
  moved onto ``n4096-fleet``: per-round masked mixing, with the rows of
  departed and crashed nodes left without neighbors inside the tiles;
* ``topk-bench256-vectorized`` — a d-psgd cell of ``cifar10-bench``
  re-scaled to n=256 at degree 6, gossiping through a top-k compressor
  (the CHOCO product ``off @ public``).

Three more were recorded from the tree *before* the row plan got a
byte budget (``repro.lanes.ROW_BUDGET``), which cuts a call into more
tiles than lanes and runs them in waves:

* ``cifar10-paper-vectorized`` — the ``cifar10-paper`` preset's
  GN-LeNet on 3x32x32 inputs at batch 32, cut to 8 nodes, 2 local
  steps and 2 rounds: small enough for the serial loop, large enough
  that every row outgrows the budget;
* ``conv-groupnorm-capped-vectorized`` and
  ``constrained-scattered-capped-vectorized`` — the two cells above
  under a budget of one or two rows per tile on two lanes, so each
  training call runs as several waves; their bytes are the uncapped
  cells'.

Two more were recorded from the tree *before* gossip learned to write
into a kept spare matrix or, above a byte budget, over the state in
column panels, and before the consensus distance streamed
``state - mean`` through one buffer:

* ``femnist-paper-vectorized`` — the ``femnist-paper`` preset's
  1.69 M-parameter CNN on 1x28x28 inputs, cut to 8 nodes, 2 local
  steps and 2 rounds: a row far wider than the consensus buffer;
* ``bench256-vectorized`` — the ``sync-paper256`` benchmark cell, a
  skiptrain cell of ``cifar10-bench`` re-scaled to n=256 at degree 6.

Two twins then mix every product in place, by column panels of 1 MiB
(``tests/oracles.py:panels``; 4 and 6 panels a product), the path a
state above ``engine.SPARE_BUDGET`` takes; their bytes are the full-width
cells':

* ``bench256-panels-vectorized`` — twin of ``bench256-vectorized``;
* ``churn-crash-fleet4096-panels-vectorized`` — twin of
  ``churn-crash-fleet4096-vectorized``, with masked per-round mixing.

One more was recorded once async partner choice read the round's
mixing matrix instead of fixed neighbor lists, which opened dynamic
topologies to the async engine:

* ``dynamic-periodic-async-vectorized`` — ``churn-async`` over a graph
  rewired every 4 rounds (masked weights re-derived per round from the
  epoch's graph); the oracle's per-event loop writes the same results.

One more was recorded from the tree *before* the engine masked its own
gossip — the one pinned cell whose per-round matrices come unmasked
from the dynamic provider:

* ``dynamic-periodic-vectorized`` — the ``cifar10-bench`` scenario cut
  to 24 rounds over a graph rewired every 4 rounds, with no churn and
  no failures.

Re-record only for an intentional, documented contract change::

    PYTHONPATH=src python tests/test_artifact_digests.py > tests/golden/artifact_digests.json
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from oracles import panels
from oracles import run_cell as oracle_run_cell

from repro import lanes
from repro.core.compression import TopKCompressor
from repro.core.dpsgd import DPSGD
from repro.energy.accounting import EnergyMeter
from repro.experiments import (
    artifact_path,
    build_plan,
    get_preset,
    run_cell,
)
from repro.experiments.artifacts import write_cell_artifact
from repro.experiments.runner import ExperimentResult, prepare
from repro.hostinfo import blas_core
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.layers.normalization import GroupNorm
from repro.nn.module import Sequential
from repro.scenarios import TopologySpec, build_scenario_plan, get_scenario
from repro.simulation import EngineConfig, RngFactory, SimulationEngine, build_nodes

GOLDEN = Path(__file__).parent / "golden" / "artifact_digests.json"


def ragged_preset():
    """8 nodes over 100 samples: two array-split shards each gives node
    sizes 12 and 13, straddling ``batch_size=13``."""
    return dataclasses.replace(
        get_preset("n1024-fleet"),
        name="ragged",
        n_nodes=8,
        degrees=(3,),
        num_train=100,
        num_test=120,
        batch_size=13,
        local_steps=2,
        total_rounds=12,
        eval_every=4,
        eval_node_sample=None,
        tuned_schedules={3: (2, 2)},
    )


def _conv_gn_net(rng):
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        GroupNorm(2, 4),
        ReLU(),
        MaxPool2d(2),
        Conv2d(4, 6, 3, padding=1, rng=rng),
        GroupNorm(3, 6),
        ReLU(),
        Flatten(),
        Linear(6 * 4 * 4, 10, rng=rng),
    )


def conv_gn_preset():
    """8 nodes of ``cifar10-bench``'s 1x8x8 data under a two-stage
    conv + GroupNorm net instead of the bench MLP."""
    return dataclasses.replace(
        get_preset("cifar10-bench"),
        name="conv-gn",
        n_nodes=8,
        degrees=(3,),
        num_train=48 * 8,
        num_test=120,
        model_factory=_conv_gn_net,
        learning_rate=0.1,
        batch_size=4,
        local_steps=2,
        total_rounds=8,
        eval_every=4,
        eval_node_sample=None,
        tuned_schedules={3: (2, 2)},
    )


def _conv_gn(results_dir):
    preset = conv_gn_preset()
    cell = build_plan(preset, ("skiptrain",), seeds=(0,))[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def paper_cnn_preset():
    """``cifar10-paper`` (GN-LeNet, 3x32x32, batch 32) at 8 nodes."""
    return dataclasses.replace(
        get_preset("cifar10-paper"),
        name="cifar10-paper-n8",
        n_nodes=8,
        degrees=(3,),
        num_train=64 * 8,
        num_test=64,
        local_steps=2,
        eval_every=2,
        eval_node_sample=None,
        tuned_schedules={3: (2, 2)},
    )


def _paper_cnn(results_dir, run=run_cell):
    preset = paper_cnn_preset()
    cell = build_plan(preset, ("skiptrain",), seeds=(0,), total_rounds=2)[0]
    run(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def femnist_paper_preset():
    """``femnist-paper`` (the LEAF CNN, 1x28x28, batch 16) at 8 nodes."""
    return dataclasses.replace(
        get_preset("femnist-paper"),
        name="femnist-paper-n8",
        n_nodes=8,
        degrees=(3,),
        num_train=64 * 8,
        num_test=64,
        num_writers=16,
        local_steps=2,
        eval_every=2,
        eval_node_sample=None,
        tuned_schedules={3: (2, 2)},
    )


def _femnist_paper(results_dir):
    preset = femnist_paper_preset()
    cell = build_plan(preset, ("skiptrain",), seeds=(0,), total_rounds=2)[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _bench256(results_dir):
    n = 256
    preset = dataclasses.replace(
        get_preset("cifar10-bench"), name=f"cifar10-bench-n{n}", n_nodes=n,
        degrees=(6,), num_train=192 * n, eval_every=4, eval_node_sample=32,
    )
    cell = build_plan(preset, ("skiptrain",), degrees=(6,), seeds=(0,),
                      total_rounds=8)[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _capped(run, nbytes):
    """``run`` with ``lanes.ROW_BUDGET = nbytes`` on two lanes, where
    every call the budget cuts must run as three waves or more."""

    def capped(results_dir):
        waves = []
        real = lanes.tile_bounds

        def spy(rows, row_work, row_bytes=0):
            bounds = real(rows, row_work, row_bytes)
            # the trainer's and the evaluator's calls; the bank's
            # read-ahead states its bytes too, but fills a few rows
            if row_bytes and sys._getframe(1).f_code.co_name != "_read_ahead":
                waves.append(-(-(len(bounds) - 1) // 2))
            return bounds

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lanes, "ROW_BUDGET", nbytes)
            patch.setattr(lanes, "lane_count", lambda: 2)
            patch.setattr(lanes, "tile_bounds", spy)
            path = run(results_dir)
        assert waves and min(waves) >= 3, waves
        return path

    return capped


def _in_panels(run, nbytes):
    """``run`` with every gossip product in place by column panels of
    ``nbytes``, each product three panels or more."""

    def panelled(results_dir):
        with panels(nbytes) as counts:
            path = run(results_dir)
        assert counts and min(counts) >= 3, counts
        return path

    return panelled


def _weight_decay(results_dir):
    """``run_cell`` has no weight-decay knob (no preset sets one), so
    this wires ``build_run``'s engine by hand around an
    ``EngineConfig(weight_decay=0.01)``."""
    preset = get_preset("cifar10-bench")
    cell = build_plan(preset, ("d-psgd",), degrees=(3,), seeds=(0,),
                      total_rounds=16)[0]
    prepared = prepare(preset, cell.degree, seed=cell.seed)
    rngs = RngFactory(cell.seed)
    model = preset.model_factory(rngs.stream("model"))
    nodes = build_nodes(prepared.train, prepared.partition, preset.batch_size, rngs)
    config = EngineConfig(
        local_steps=preset.local_steps,
        learning_rate=preset.learning_rate,
        weight_decay=0.01,
        total_rounds=cell.total_rounds,
        eval_every=preset.eval_every,
        eval_node_sample=preset.eval_node_sample,
    )
    engine = SimulationEngine(
        model, nodes, prepared.mixing, config, prepared.test,
        meter=EnergyMeter(prepared.trace), eval_rng=rngs.stream("eval"),
    )
    history = engine.run(DPSGD(preset.n_nodes))
    result = ExperimentResult(history=history, meter=engine.meter,
                              trace=prepared.trace)
    return write_cell_artifact(results_dir, cell, result)


def _constrained(results_dir):
    preset = get_preset("cifar10-bench")
    cell = build_plan(preset, ("skiptrain-constrained",), degrees=(3,),
                      seeds=(0,))[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _fleet(results_dir):
    preset = get_preset("n1024-fleet")
    cell = build_plan(preset, ("skiptrain",), degrees=(4,), seeds=(0,))[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _fleet16384(results_dir):
    preset = get_preset("n16384-fleet")
    cell = build_plan(preset, ("skiptrain",), degrees=(4,), seeds=(0,),
                      total_rounds=12)[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _femnist_writer(results_dir):
    preset = get_preset("femnist-bench")
    cell = build_plan(preset, ("skiptrain",), degrees=(3,), seeds=(0,),
                      total_rounds=32)[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _bench(results_dir):
    preset = get_preset("cifar10-bench")
    cell = build_plan(preset, ("skiptrain",), degrees=(3,), seeds=(0,),
                      total_rounds=24)[0]
    oracle_run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _ragged(results_dir, run=oracle_run_cell):
    preset = ragged_preset()
    cell = build_plan(preset, ("skiptrain",), seeds=(0,))[0]
    run(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _async(results_dir, preset, **plan_kwargs):
    cell = build_plan(preset, ("async-skiptrain",), seeds=(0,),
                      **plan_kwargs)[0]
    run_cell(preset, cell, results_dir)
    return artifact_path(results_dir, cell)


def _ragged_async(results_dir):
    return _async(results_dir, ragged_preset())


def _femnist_async(results_dir):
    return _async(results_dir, get_preset("femnist-bench"),
                  degrees=(3,), total_rounds=8)


def _scenario(results_dir, spec):
    cell = build_scenario_plan(spec, seeds=(0,))[0]
    run_cell(get_preset(spec.preset), cell, results_dir,
             scenario_lookup=lambda name: spec)
    return artifact_path(results_dir, cell)


def _churn_async(results_dir):
    return _scenario(results_dir, get_scenario("churn-async"))


def _dynamic_async(results_dir, run=run_cell):
    spec = dataclasses.replace(
        get_scenario("churn-async"),
        name="churn-async-rewired",
        topology=TopologySpec(kind="dynamic-periodic", period=4),
    )
    cell = build_scenario_plan(spec, seeds=(0,))[0]
    run(get_preset(spec.preset), cell, results_dir,
        scenario_lookup=lambda name: spec)
    return artifact_path(results_dir, cell)


def _dynamic(results_dir):
    return _scenario(results_dir, dataclasses.replace(
        get_scenario("cifar10-bench"),
        name="cifar10-bench-rewired",
        total_rounds=24,
        eval_every=6,
        topology=TopologySpec(kind="dynamic-periodic", period=4),
    ))


def _churn_crash(results_dir):
    return _scenario(results_dir, get_scenario("churn-crash"))


def _dynamic_churn(results_dir):
    return _scenario(results_dir, dataclasses.replace(
        get_scenario("churn-ramp"),
        name="churn-ramp-rewired",
        topology=TopologySpec(kind="dynamic-periodic", period=4),
    ))


def _churn_crash_fleet(results_dir):
    return _scenario(results_dir, dataclasses.replace(
        get_scenario("churn-crash"),
        name="churn-crash-fleet4096",
        preset="n4096-fleet",
    ))


def _topk_bench256(results_dir):
    """No preset or scenario gossips through a compressor, so this wires
    ``build_run``'s engine by hand, as :func:`_weight_decay` does."""
    n = 256
    preset = dataclasses.replace(
        get_preset("cifar10-bench"), name=f"cifar10-bench-n{n}", n_nodes=n,
        degrees=(6,), num_train=192 * n, eval_every=4, eval_node_sample=32,
    )
    cell = build_plan(preset, ("d-psgd",), degrees=(6,), seeds=(0,),
                      total_rounds=8)[0]
    prepared = prepare(preset, cell.degree, seed=cell.seed)
    rngs = RngFactory(cell.seed)
    model = preset.model_factory(rngs.stream("model"))
    nodes = build_nodes(prepared.train, prepared.partition, preset.batch_size, rngs)
    config = EngineConfig(
        local_steps=preset.local_steps,
        learning_rate=preset.learning_rate,
        total_rounds=cell.total_rounds,
        eval_every=preset.eval_every,
        eval_node_sample=preset.eval_node_sample,
    )
    engine = SimulationEngine(
        model, nodes, prepared.mixing, config, prepared.test,
        meter=EnergyMeter(prepared.trace), eval_rng=rngs.stream("eval"),
        compressor=TopKCompressor(0.1),
    )
    history = engine.run(DPSGD(preset.n_nodes))
    result = ExperimentResult(history=history, meter=engine.meter,
                              trace=prepared.trace)
    return write_cell_artifact(results_dir, cell, result)


CELLS = {
    "fleet-vectorized": _fleet,
    "fleet16384-vectorized": _fleet16384,
    "femnist-writer-vectorized": _femnist_writer,
    "bench-serial-steps10": _bench,
    "ragged-serial": _ragged,
    "ragged-async-vectorized": _ragged_async,
    "femnist-async-vectorized": _femnist_async,
    "churn-async-vectorized": _churn_async,
    "dynamic-periodic-async-vectorized": _dynamic_async,
    "churn-crash-vectorized": _churn_crash,
    "dynamic-periodic-churn-vectorized": _dynamic_churn,
    "dynamic-periodic-vectorized": _dynamic,
    "churn-crash-fleet4096-vectorized": _churn_crash_fleet,
    "churn-crash-fleet4096-panels-vectorized": _in_panels(_churn_crash_fleet, 1 << 20),
    "topk-bench256-vectorized": _topk_bench256,
    "conv-groupnorm-vectorized": _conv_gn,
    "conv-groupnorm-capped-vectorized": _capped(_conv_gn, 150 << 10),
    "cifar10-paper-vectorized": _paper_cnn,
    "femnist-paper-vectorized": _femnist_paper,
    "bench256-vectorized": _bench256,
    "bench256-panels-vectorized": _in_panels(_bench256, 1 << 20),
    "weight-decay-vectorized": _weight_decay,
    "constrained-scattered-vectorized": _constrained,
    "constrained-scattered-capped-vectorized": _capped(_constrained, 64 << 10),
}


#: cells too heavy for quick iteration (``-m 'not slow'``)
SLOW = {"femnist-paper-vectorized"}


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
    for name in sorted(CELLS)
])
def test_artifact_bytes_match_the_pre_bank_record(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CELLS)
    assert digest(CELLS[name](tmp_path)) == golden[name], (
        f"{name}: raw artifact bytes moved — the batch-stream contract "
        f"(docs/determinism-contracts.md) changed somewhere between "
        f"partition, index draw and gather (on numpy {np.__version__}, "
        f"BLAS core {blas_core()})"
    )


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
def test_fleet16384_cell_on_one_cpu_matches_its_pin(tmp_path):
    """The ``fleet16384-vectorized`` cell in a child pinned to one CPU
    before numpy loads (as ``taskset -c 0`` would): its gossip products
    and batch draws run as one tile instead of one per CPU, and each
    training call as sequential waves of at most ``lanes.ROW_BUDGET``
    bytes on the calling thread. Not a byte may move."""
    cpu = min(os.sched_getaffinity(0))
    code = textwrap.dedent(f"""
        import json, os, sys
        os.sched_setaffinity(0, {{{cpu}}})
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from pathlib import Path
        from test_artifact_digests import _fleet16384, digest
        from repro import lanes
        sha = digest(_fleet16384(Path({str(tmp_path)!r})))
        print(json.dumps({{"lanes": lanes.lane_count(), "sha": sha}}))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.splitlines()[-1])
    assert child["lanes"] == 1
    assert child["sha"] == json.loads(GOLDEN.read_text())["fleet16384-vectorized"], (
        f"fleet16384-vectorized on one CPU moved its bytes (on numpy "
        f"{np.__version__}, BLAS core {blas_core()})"
    )


def test_ragged_cell_serial_vectorized_and_sharded_agree(tmp_path):
    """Nodes with ``k_i < batch_size`` train in their own stacked
    sub-block; that grouping must be invisible in the artifact, which
    the serial oracle writes too (the name predates the removal of node
    sharding and of the serial engine)."""
    preset = ragged_preset()
    sizes = {len(p) for p in prepare(preset, 3, seed=0).partition}
    assert min(sizes) < preset.batch_size <= max(sizes)
    serial = json.loads(_ragged(tmp_path / "serial").read_bytes())
    vectorized = json.loads(
        _ragged(tmp_path / "vectorized", run=run_cell).read_bytes()
    )
    assert serial.pop("engine") == {"vectorized": False}
    assert vectorized.pop("engine") == {"vectorized": True}
    assert serial == vectorized


def test_dynamic_async_cell_oracle_and_product_agree(tmp_path):
    """The pinned async cell over a rewired graph: the oracle's
    per-event loop, reading each event's partners and each join's
    neighbors from the round's graph, writes the product's results."""
    oracle = json.loads(
        _dynamic_async(tmp_path / "oracle", run=oracle_run_cell).read_bytes()
    )
    product = json.loads(_dynamic_async(tmp_path / "product").read_bytes())
    assert oracle.pop("engine")["vectorized"] is False
    assert product.pop("engine")["vectorized"] is True
    assert oracle == product


@pytest.mark.slow
def test_paper_cell_serial_and_vectorized_agree(tmp_path):
    """The pinned GN-LeNet cell through the serial oracle writes the
    same results as through the stacked trainer."""
    serial = json.loads(
        _paper_cnn(tmp_path / "serial", run=oracle_run_cell).read_bytes()
    )
    vectorized = json.loads(_paper_cnn(tmp_path / "vectorized").read_bytes())
    assert serial.pop("engine") == {"vectorized": False}
    assert vectorized.pop("engine") == {"vectorized": True}
    assert serial == vectorized


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(
            {name: digest(run(Path(tmp) / name)) for name, run in sorted(CELLS.items())},
            indent=1,
        ))
