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

from repro import lanes
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
    "cells",
    "gossip",
    "panels",
    "run_cell",
    "run_events",
    "serial",
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


def gossip(engine, i, eligible=None):
    """One pairwise gossip from node ``i``; ``eligible`` masks the
    partner candidates (dead or departed nodes are never chosen).
    Returns the partner id, or ``None`` for a train-only activation
    (whole neighborhood ineligible)."""
    candidates = engine.neighbors[i]
    if eligible is not None:
        candidates = candidates[eligible[candidates]]
        if candidates.size == 0:
            return None
    j = int(engine.rng.choice(candidates))
    engine._average(i, j)
    return j


def run_events(engine, algorithm, *, start=0, history=None, hook=None):
    """``engine.run``'s contract, one event at a time: the hook fires
    after every event (``resumable_at == at``), evaluations land on the
    same absolute cadence."""
    history = engine._begin(algorithm, start, history)
    total, eval_every = engine.total_events, engine.eval_every
    for event in range(start + 1, total + 1):
        time, i = heapq.heappop(engine._queue)
        t = int(time) + 1
        if engine.churn is not None and t > engine._churn_round:
            engine._advance_churn(t)
        alive = engine._alive_at(time)
        present = engine.churn.present(t) if engine.churn is not None else None
        if present is None:
            eligible = alive
        elif alive is None:
            eligible = present
        else:
            eligible = present & alive
        if eligible is None or eligible[i]:
            engine.activation_counts[i] += 1
            if engine._may_train(i) and algorithm.should_train(
                i, int(engine.activation_counts[i])
            ):
                engine.local_trainer.train(engine.state, [i])
                engine.train_counts[i] += 1
                if engine.trace is not None:
                    engine.train_energy_wh += engine.trace.train_energy_wh[i]
            gossip(engine, i, eligible)
        # dead/absent nodes stay silent but their clock keeps ticking
        heapq.heappush(engine._queue, (time + float(engine.rng.exponential()), i))
        if event % eval_every == 0 or event == total:
            history.records.append(engine._evaluate(time, event))
        if hook is not None:
            hook(engine, event, history, event)
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
