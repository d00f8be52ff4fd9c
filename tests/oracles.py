"""The serial reference loops the product engines are checked against.

The engines train and evaluate every block of nodes stacked
(:class:`repro.simulation.local_step.LocalTrainer`) and run async events
in planned windows. The loops here do the same work one node and one
event at a time, the way the paper's Algorithm 1 reads, and each is
bit-identical to the product — the oracle ≡ product contract the
batteries assert:

* :class:`SerialTrainer` — E plain-SGD steps per row on one workspace
  model, and an ``evaluator`` that evaluates node by node;
* :func:`run_events` — the async engine's per-event loop, whose hook
  fires after every event;
* :func:`run_cell` / :func:`cells` — sweep cells run through both loops,
  their artifacts stamped ``vectorized=False``.

And one layout the product takes only above a byte budget, forced at
test scale: :func:`panels`, gossip in place by column panels.

The mixing matrices as the tree built them in scipy's sparse algebra,
before it had its own CSR type (:class:`repro.topology.Csr`):

* :func:`scipy_masked_mixing` — ``w_off + sp.diags(1 - w_off.sum(axis=1))``
  over the alive subgraph (all alive: Metropolis–Hastings);
* :func:`scipy_uniform_weights` — the uniform build from COO triplets;
* :func:`scipy_off_diagonal` — ``w - sp.diags(w.diagonal())``, the
  compressed-gossip path's neighbor part;
* :func:`as_scipy` — a :class:`~repro.topology.Csr` as scipy's matrix.

The data partitioners and the energy trace as the tree built them one
node at a time, before the partition became one CSR
(:class:`repro.data.Partition`):

* :func:`shard_partition`, :func:`iid_partition`,
  :func:`writer_partition`, :func:`dirichlet_partition` — a list of
  per-node index arrays (``np.array_split`` / ``np.split`` into pieces,
  one ``np.sort`` / ``np.concatenate`` per node);
* :func:`build_trace` — ``per_round_energy_wh`` and
  ``communication_energy_wh`` called once per node.

And the byte count the dataset-residency tests bound a process by:
:func:`dataset_bytes`, every array of one prepared dataset.

The seam is an attribute, not a knob: :func:`serial` swaps a product
engine's ``local_trainer`` for the serial one (and an async engine's
``run`` for :func:`run_events`).
"""

from __future__ import annotations

import contextlib
import functools
import heapq

import numpy as np
import pytest
import scipy.sparse as sp

from repro import lanes
from repro.energy.traces import (
    EnergyTrace,
    assign_devices_round_robin,
    communication_energy_wh,
    per_round_energy_wh,
)
from repro.experiments import artifacts, runner, sweep
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.nn.serialization import parameter_vector, set_parameter_vector
from repro.simulation import AsyncGossipEngine
from repro.simulation import engine as engine_module
from repro.simulation.metrics import evaluate_model_vector

__all__ = [
    "NodeByNodeEvaluator",
    "SerialTrainer",
    "as_scipy",
    "build_trace",
    "cells",
    "dataset_bytes",
    "dirichlet_partition",
    "gossip",
    "iid_partition",
    "panels",
    "run_cell",
    "run_events",
    "scipy_masked_mixing",
    "scipy_off_diagonal",
    "scipy_uniform_weights",
    "serial",
    "shard_partition",
    "writer_partition",
]


class NodeByNodeEvaluator:
    """The per-node evaluation loop: each row loaded into ``model`` and
    evaluated alone. Same interface as
    :class:`~repro.nn.batched.BatchedEvaluator`."""

    def __init__(self, model) -> None:
        self.model = model

    def evaluate(self, state, dataset, node_ids=None, batch_size=256):
        ids = np.arange(state.shape[0]) if node_ids is None else node_ids
        return np.array([
            evaluate_model_vector(self.model, state[i], dataset, batch_size)
            for i in ids
        ])


class SerialTrainer:
    """The serial row loop: each listed row trained alone, E plain-SGD
    steps on ``model`` as a workspace, on the same drawn batches the
    stacked trainer gets. Same interface as the product's
    :class:`~repro.simulation.local_step.LocalTrainer`."""

    def __init__(self, model, nodes, local_steps, lr, weight_decay=0.0):
        self.model = model
        self.nodes = nodes
        self.local_steps = local_steps
        self.loss = CrossEntropyLoss()
        self.optimizer = SGD(model.parameters(), lr=lr, weight_decay=weight_decay)
        self.evaluator = NodeByNodeEvaluator(model)

    @classmethod
    def like(cls, trainer) -> "SerialTrainer":
        """The serial twin of a product ``LocalTrainer``."""
        return cls(trainer.model, trainer.nodes, trainer.local_steps,
                   trainer.lr, trainer.weight_decay)

    def train(self, state, ids):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0)
        idx, k = self.nodes.draw(ids, self.local_steps)
        return np.array(
            [self.train_row(state[i], idx[r, :, : k[r]]) for r, i in enumerate(ids)]
        )

    def train_row(self, row, idx) -> float:
        """E local SGD steps on one parameter ``row``, in place, step
        ``s`` on samples ``idx[s]`` of the bank's data. Returns the mean
        training loss over the steps."""
        x, y = self.nodes.x, self.nodes.y
        set_parameter_vector(self.model, row)
        total_loss = 0.0
        for sel in idx:
            logits = self.model(x[sel])
            total_loss += self.loss.forward(logits, y[sel])
            self.model.zero_grad()
            self.model.backward(self.loss.backward())
            self.optimizer.step()
        parameter_vector(self.model, out=row)
        return total_loss / self.local_steps


def serial(engine):
    """Put ``engine`` on the serial loops, in place, and return it: its
    trainer becomes a :class:`SerialTrainer`, and an async engine's
    ``run`` becomes :func:`run_events`."""
    engine.local_trainer = SerialTrainer.like(engine.local_trainer)
    if isinstance(engine, AsyncGossipEngine):
        engine.run = functools.partial(run_events, engine)
    return engine


def gossip(engine, i, eligible=None, t=1):
    """One pairwise gossip from node ``i`` in round ``t``: the partner is
    drawn from ``i``'s neighbors in the round's mixing matrix (its CSR
    row minus the diagonal); ``eligible`` masks the candidates (dead or
    departed nodes are never chosen). Returns the partner id, or
    ``None`` for a train-only activation (whole neighborhood
    ineligible)."""
    w = engine._mixing_for_round(t)
    candidates = w.indices[w.indptr[i] : w.indptr[i + 1]]
    candidates = candidates[candidates != i]
    if eligible is not None:
        candidates = candidates[eligible[candidates]]
        if candidates.size == 0:
            return None
    j = int(engine.rng.choice(candidates))
    engine._average(i, j)
    return j


def run_events(engine, algorithm, *, start=0, history=None, hook=None):
    """``engine.run``'s contract, one event at a time: the hook fires
    after every event with the last evaluation point, evaluations land
    on the same absolute cadence."""
    history = engine._begin(algorithm, start, history)
    total, eval_every = engine.total_events, engine.eval_every
    last_eval = history.records[-1].activations if history.records else 0
    for event in range(start + 1, total + 1):
        time, i = heapq.heappop(engine._queue)
        t = int(time) + 1
        if engine.churn is not None and t > engine._churn_round:
            # every round's join handoffs up to this one, over its graph
            for r in range(engine._churn_round + 1, t + 1):
                engine._apply_churn(r)
            engine._churn_round = t
        eligible = engine._eligible(t)
        if eligible is None or eligible[i]:
            engine.activation_counts[i] += 1
            if engine._may_train(i) and algorithm.should_train(
                i, int(engine.activation_counts[i])
            ):
                engine.local_trainer.train(engine.state, [i])
                engine.train_counts[i] += 1
                if engine.trace is not None:
                    engine.train_energy_wh += engine.trace.train_energy_wh[i]
            gossip(engine, i, eligible, t)
        # dead/absent nodes stay silent but their clock keeps ticking
        heapq.heappush(engine._queue, (time + float(engine.rng.exponential()), i))
        if event % eval_every == 0 or event == total:
            history.records.append(engine._evaluate_at(time, event))
            last_eval = event
        if hook is not None:
            hook(engine, event, history, last_eval)
    return history


def _execute_serially(engine, algorithm, trace, **kwargs):
    return runner.execute_run(serial(engine), algorithm, trace, **kwargs)


def _write_serial_artifact(results_dir, cell, result):
    return artifacts.write_cell_artifact(results_dir, cell, result,
                                         vectorized=False)


@contextlib.contextmanager
def cells():
    """Inside, every sweep cell this process runs — ``run_cell``,
    ``run_sweep(jobs=1)`` — runs on the serial loops and writes its
    artifact stamped ``vectorized=False``. Checkpoints, resume and
    artifacts take the product's own path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "execute_run", _execute_serially)
        patch.setattr(sweep, "write_cell_artifact", _write_serial_artifact)
        yield


def run_cell(preset, cell, results_dir, **options):
    """:func:`repro.experiments.run_cell` on the serial loops."""
    with cells():
        return sweep.run_cell(preset, cell, results_dir, **options)


@contextlib.contextmanager
def panels(row_budget):
    """Inside, every state the sync engine gossips is over the spare
    budget (``SPARE_BUDGET = 0``), so each product overwrites the state
    in column panels of ``row_budget`` bytes (``lanes.ROW_BUDGET``, which
    cuts the trainer's row tiles too). Yields the list the panel count
    of every product is appended to."""
    counts, calls = [], []
    real_gossip, real_panels = engine_module.gossip, engine_module.gossip_panels

    def counted_gossip(*args):
        calls.append(None)
        return real_gossip(*args)

    def counted_panels(w, x):
        before = len(calls)
        real_panels(w, x)
        counts.append(len(calls) - before)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "SPARE_BUDGET", 0)
        patch.setattr(lanes, "ROW_BUDGET", row_budget)
        patch.setattr(engine_module, "gossip", counted_gossip)
        patch.setattr(engine_module, "gossip_panels", counted_panels)
        yield counts


def as_scipy(w):
    """A :class:`~repro.topology.Csr` as scipy's ``csr_matrix``."""
    return sp.csr_matrix((w.data, w.indices, w.indptr), shape=w.shape)


def scipy_masked_mixing(graph, alive):
    """Metropolis–Hastings weights over the subgraph ``alive`` induces,
    dead nodes on identity rows: the off-diagonal weights as one CSR,
    plus a diagonal of one minus its row sums."""
    n = graph.n_nodes
    rows = np.repeat(np.arange(n), graph.degrees)
    keep = alive[rows] & alive[graph.indices]
    rows, cols = rows[keep], graph.indices[keep]
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    vals = 1.0 / (np.maximum(deg[rows], deg[cols]) + 1.0)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    w_off = sp.csr_matrix((vals, cols, indptr), shape=(n, n))
    diag = 1.0 - np.asarray(w_off.sum(axis=1)).ravel()
    return (w_off + sp.diags(diag, format="csr")).tocsr()


def scipy_uniform_weights(graph):
    """``W[i, j] = 1/(deg(i)+1)`` over the closed neighborhood, from COO
    triplets (scipy sorts each row)."""
    n = graph.n_nodes
    self_ids = np.arange(n, dtype=np.int64)
    rows = np.concatenate([np.repeat(self_ids, graph.degrees), self_ids])
    cols = np.concatenate([graph.indices, self_ids])
    wrow = 1.0 / (graph.degrees + 1.0)
    return sp.csr_matrix((wrow[rows], (rows, cols)), shape=(n, n), dtype=np.float64)


def scipy_off_diagonal(w):
    """``w - sp.diags(w.diagonal())`` of a scipy matrix ``w``."""
    return w - sp.diags(w.diagonal())


def shard_partition(labels, n_nodes, shards_per_node=2, rng=None):
    """Sort by label, ``np.array_split`` into ``n_nodes * shards_per_node``
    shards, deal them by one ``rng.permutation``, concatenate per node."""
    rng = rng if rng is not None else np.random.default_rng(0)
    order = np.argsort(np.asarray(labels), kind="stable")
    num_shards = n_nodes * shards_per_node
    shards = np.array_split(order, num_shards)
    shard_ids = rng.permutation(num_shards)
    return [
        np.concatenate([shards[s] for s in shard_ids[node * shards_per_node:
                                                     (node + 1) * shards_per_node]])
        for node in range(n_nodes)
    ]


def writer_partition(tags, n_nodes):
    """Each of the top-``n_nodes`` writers by sample count, largest first,
    as one node."""
    counts = np.bincount(tags.writer, minlength=tags.num_writers)
    top = np.argsort(-counts, kind="stable")[:n_nodes]
    return [np.nonzero(tags.writer == w)[0] for w in top]


def iid_partition(n_samples, n_nodes, rng):
    """One permutation, ``np.array_split`` into nodes, each sorted."""
    perm = rng.permutation(n_samples)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_nodes)]


def dirichlet_partition(labels, n_nodes, alpha, rng, min_samples=1,
                        max_retries=100):
    """Per class: shuffle its samples, draw Dirichlet(α) proportions and
    ``np.split`` the class at their cumulative cuts; retried until every
    node holds ``min_samples``."""
    labels = np.asarray(labels)
    num_classes = int(labels.max()) + 1
    for _ in range(max_retries):
        buckets = [[] for _ in range(n_nodes)]
        for c in range(num_classes):
            idx = np.nonzero(labels == c)[0]
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(n_nodes, alpha))
            cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
            for node, chunk in enumerate(np.split(idx, cuts)):
                buckets[node].append(chunk)
        parts = [np.sort(np.concatenate(b)) for b in buckets]
        if min(p.size for p in parts) >= min_samples:
            return parts
    raise RuntimeError(f"could not satisfy min_samples={min_samples}")


def build_trace(n_nodes, workload, battery_fraction, degree=6, devices=None):
    """The energy trace with both per-round energies computed node by node."""
    assigned = devices if devices is not None else assign_devices_round_robin(n_nodes)
    train = np.array([per_round_energy_wh(d, workload) for d in assigned])
    comm = np.array([communication_energy_wh(d, workload, degree) for d in assigned])
    budgets = np.floor(battery_fraction * np.array([d.battery_wh for d in assigned])
                       / train).astype(np.int64)
    return EnergyTrace(devices=assigned, train_energy_wh=train,
                       comm_energy_wh=comm, budget_rounds=budgets)


def dataset_bytes(data):
    """Bytes of every array a :class:`~repro.experiments.runner.
    PreparedData` holds: what keeping it alive costs."""
    arrays = (data.train.x, data.train.y, data.test.x, data.test.y,
              data.validation.x, data.validation.y,
              data.partition.offsets, data.partition.indices)
    return sum(array.nbytes for array in arrays)
