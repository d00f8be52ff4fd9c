"""Asynchronous gossip engine — the paper's §5.3 future-work direction.

The synchronous engine advances all nodes in lockstep rounds, which §5.3
notes is hard to coordinate at scale. This engine drops the global
clock: every node carries an independent Poisson activation clock; on
each activation it (optionally) trains and then performs one *pairwise
gossip* with a uniformly random neighbor, both parties averaging their
models (randomized gossip, Boyd et al.). Expected-value behaviour
matches synchronous D-PSGD/SkipTrain while requiring no coordination.

SkipTrain translates naturally: instead of globally coordinated sync
rounds, each node runs its own local Γ_train/Γ_sync cycle over its
activation counter — training-silent *activations* replace
training-silent rounds. Energy accounting charges a node's per-round
training energy per training activation, so the 50 % saving carries
over activation-for-activation.

The engine composes with the same scenario axes as the synchronous one:

* **Failures** — a :class:`~repro.simulation.failures.FailureModel`
  queried at ``t = ⌊time⌋ + 1`` (unit-rate Poisson clocks make one unit
  of simulated time the async analogue of one round). A dead node does
  not activate (no training, no gossip, its activation counter pauses)
  and is never chosen as a gossip partner; an alive node whose entire
  neighborhood is down trains normally but skips the gossip step.
* **Battery budgets** — with ``enforce_budgets=True`` the engine stops
  a node from training once its τᵢ budget
  (:attr:`~repro.energy.traces.EnergyTrace.budget_rounds`) is spent,
  regardless of the policy (engine-level battery depletion; the
  constrained policy additionally rations its coin flips).
* **Churn** — a :class:`~repro.scenarios.churn.ChurnSchedule` over the
  same ``⌊time⌋ + 1`` round analogue. A node that has not joined (or
  has left) never activates and is never chosen as a gossip partner;
  on its join round it is seeded with the mean of its eligible
  neighbors' states, exactly once (the engine keeps a cursor of the
  last handoff-applied round, which checkpoints with the rest of the
  state).

Randomness is split across three independent streams so trajectories
never depend on observation choices: the event stream (Poisson clocks +
partner choice), the evaluation stream (node subsampling — changing
``eval_every`` or ``eval_node_sample`` cannot alter the trajectory),
and each node's batch stream. All of them — plus the event heap,
counters, and policy state — round-trip through
:meth:`AsyncGossipEngine.state_dict`, so a killed run restored via
:func:`~repro.simulation.checkpoint.load_run_checkpoint` continues
bit-for-bit from any event boundary.

Event windows
-------------
Local training and evaluation come from the sync engine's executor,
:class:`~repro.simulation.local_step.LocalTrainer`. Events run in
windows, one per evaluation boundary, planned by
:mod:`repro.simulation.event_batch`: events whose (activator, partner)
node sets are pairwise disjoint are packed into batches whose local
training runs as one pass through the stacked :mod:`repro.nn.batched`
kernels, with the gossip averages then applied in original event order.
The trajectory — state matrix, counters, rng streams, history records —
is **bit-identical** to executing the events one at a time, because
batched events touch disjoint state rows, each node's batch rng stream
is private, and all shared randomness is consumed in event order at
planning time; that one-event-at-a-time loop survives as the test
suite's oracle. The run's ``hook`` fires once per completed window
(always an evaluation boundary), so checkpoints written from it land on
evaluation boundaries, but *resuming* works from any event boundary —
the evaluation cadence is absolute in the event index, so a run resumed
mid-window simply plans a shorter first window.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.schedule import RoundSchedule
from ..data.dataset import ArrayDataset
from ..energy.traces import EnergyTrace
from ..nn.module import Module
from ..nn.serialization import parameter_vector
from .event_batch import EventBatch, plan_window
from .local_step import LocalTrainer
from .metrics import (
    _RecordCodec,
    consensus_distance,
    evaluate_state,
    membership_eval_pool,
)
from .node_bank import NodeBank
from .rng import generator_state, restore_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.churn import ChurnSchedule
    from .failures import FailureModel

__all__ = [
    "AsyncPolicy",
    "AsyncDPSGD",
    "AsyncSkipTrain",
    "AsyncSkipTrainConstrained",
    "AsyncRecord",
    "AsyncHistory",
    "AsyncGossipEngine",
]


def _spawn_child(rng: np.random.Generator) -> np.random.Generator:
    """A child generator off ``rng``'s seed sequence. Spawning never
    advances the parent's bit stream; falls back to the seed-sequence
    API on NumPy < 1.25 (no ``Generator.spawn``)."""
    try:
        return rng.spawn(1)[0]
    except AttributeError:
        seed_seq = getattr(rng.bit_generator, "seed_seq", None) or getattr(
            rng.bit_generator, "_seed_seq", None
        )
        if seed_seq is None:
            raise ValueError(
                "cannot derive a default eval_rng from a generator "
                "without a seed sequence; pass eval_rng explicitly"
            ) from None
        return np.random.Generator(type(rng.bit_generator)(seed_seq.spawn(1)[0]))


class AsyncPolicy:
    """Decides, per activation, whether the activating node trains."""

    name = "async-policy"

    def should_train(self, node_id: int, activation_index: int) -> bool:
        """``activation_index`` is the node's own 1-based activation
        counter — a purely local quantity."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """JSON-serializable mid-run state (stateless policies: empty)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(
                f"policy {self.name!r} is stateless but the checkpoint "
                f"carries state keys {sorted(state)}"
            )


class AsyncDPSGD(AsyncPolicy):
    """Train on every activation (async analogue of D-PSGD)."""

    name = "async-D-PSGD"

    def should_train(self, node_id: int, activation_index: int) -> bool:
        return True


class AsyncSkipTrain(AsyncPolicy):
    """Local Γ_train/Γ_sync cycling over each node's activation counter."""

    name = "async-SkipTrain"

    def __init__(self, schedule: RoundSchedule) -> None:
        if schedule.gamma_train == 0:
            raise ValueError("schedule needs at least one training slot")
        self.schedule = schedule

    def should_train(self, node_id: int, activation_index: int) -> bool:
        return self.schedule.is_training_round(activation_index)


class AsyncSkipTrainConstrained(AsyncSkipTrain):
    """Adds per-node budgets and Eq. 5 coins to the local cycle."""

    name = "async-SkipTrain-constrained"

    def __init__(
        self,
        schedule: RoundSchedule,
        budgets: np.ndarray,
        expected_activations: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(schedule)
        budgets = np.asarray(budgets, dtype=np.int64)
        if (budgets < 0).any():
            raise ValueError("budgets must be non-negative")
        if expected_activations <= 0:
            raise ValueError("expected_activations must be positive")
        t_train = schedule.max_training_rounds(expected_activations)
        self.probabilities = (
            np.minimum(budgets / t_train, 1.0) if t_train > 0
            else np.zeros(budgets.shape)
        )
        self.remaining = budgets.copy()
        self.rng = rng

    def should_train(self, node_id: int, activation_index: int) -> bool:
        if not super().should_train(node_id, activation_index):
            return False
        if self.remaining[node_id] <= 0:
            return False
        if self.rng.random() > self.probabilities[node_id]:
            return False
        self.remaining[node_id] -= 1
        return True

    def state_dict(self) -> dict:
        return {
            "remaining": self.remaining.tolist(),
            "rng": generator_state(self.rng),
        }

    def load_state_dict(self, state: dict) -> None:
        remaining = np.asarray(state["remaining"], dtype=np.int64)
        if remaining.shape != self.remaining.shape:
            raise ValueError(
                f"checkpoint has {remaining.shape[0]} budget entries, "
                f"policy has {self.remaining.shape[0]}"
            )
        self.remaining = remaining
        self.rng = restore_generator(state["rng"])


@dataclass(frozen=True)
class AsyncRecord(_RecordCodec):
    """Metrics snapshot at one evaluation time."""

    time: float
    activations: int
    mean_accuracy: float
    std_accuracy: float
    consensus: float
    train_energy_wh: float


@dataclass
class AsyncHistory:
    """Metrics of one asynchronous run."""

    policy: str
    records: list[AsyncRecord]

    def final_accuracy(self) -> float:
        if not self.records:
            raise ValueError("empty history")
        return self.records[-1].mean_accuracy

    def best_accuracy(self) -> float:
        if not self.records:
            raise ValueError("empty history")
        return max(r.mean_accuracy for r in self.records)


class AsyncGossipEngine:
    """Event-driven pairwise-gossip simulator.

    ``neighbor_lists`` defines the topology; every node activates at
    unit rate. The horizon is wired here, as the sync engine's is in
    its config: a run lasts until each node has activated
    ``activations_per_node`` times in expectation (total event budget
    ``n × activations_per_node``), evaluating every ``eval_every``
    events (default: a tenth of the budget).

    ``eval_rng`` drives evaluation-time node subsampling only. It
    defaults to a child spawned off ``rng``'s seed sequence — spawning
    never advances the parent's bit stream, so the gossip/clock
    trajectory is identical whether or how often the engine evaluates.
    Pass an explicit generator when wiring the engine from a
    :class:`~repro.simulation.rng.RngFactory` (restored generators
    cannot spawn).

    Events run in disjoint batches through the stacked kernels (see the
    module docstring); a model without a batched mirror raises
    :class:`~repro.nn.batched.UnsupportedLayerError` at construction.
    Local steps are plain SGD without weight decay.
    """

    def __init__(
        self,
        model: Module,
        nodes: NodeBank,
        neighbor_lists: list[np.ndarray],
        test_set: ArrayDataset,
        local_steps: int,
        learning_rate: float,
        rng: np.random.Generator,
        activations_per_node: int,
        eval_every: int | None = None,
        trace: EnergyTrace | None = None,
        eval_node_sample: int | None = None,
        eval_rng: np.random.Generator | None = None,
        failure_model: "FailureModel | None" = None,
        enforce_budgets: bool = False,
        churn: "ChurnSchedule | None" = None,
    ) -> None:
        n = len(nodes)
        if n != len(neighbor_lists):
            raise ValueError("neighbor lists must match node count")
        if any(len(nbrs) == 0 for nbrs in neighbor_lists):
            raise ValueError("every node needs at least one neighbor")
        if trace is not None and trace.n_nodes != n:
            raise ValueError("trace node count mismatch")
        if enforce_budgets and trace is None:
            raise ValueError("enforce_budgets requires an energy trace")
        if failure_model is not None and getattr(
            failure_model, "n_nodes", n
        ) != n:
            raise ValueError("failure model node count mismatch")
        if churn is not None and churn.n_nodes != n:
            raise ValueError("churn schedule node count mismatch")
        if activations_per_node <= 0:
            raise ValueError("activations_per_node must be positive")
        if eval_every is not None and eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if eval_node_sample is not None and eval_node_sample <= 0:
            raise ValueError("eval_node_sample must be positive when given")
        self.total_events = n * activations_per_node
        self.eval_every = (
            eval_every if eval_every is not None
            else max(1, self.total_events // 10)
        )
        self.model = model
        self.nodes = nodes
        self.neighbors = neighbor_lists
        self.test_set = test_set
        self.rng = rng
        self.eval_rng = eval_rng if eval_rng is not None else _spawn_child(rng)
        self.trace = trace
        self.eval_node_sample = eval_node_sample
        self.failure_model = failure_model
        self.enforce_budgets = enforce_budgets
        self.churn = churn
        #: last (1-based) round whose join handoffs have been applied —
        #: the one piece of churn state that must checkpoint (membership
        #: itself is a pure function of the round index)
        self._churn_round = 0
        self.local_trainer = LocalTrainer(
            model, nodes, local_steps, learning_rate, 0.0
        )
        #: the ``(n, dim)`` node-state matrix, one float64 row per node;
        #: event execution touches it through per-node row views only
        self.state = np.tile(parameter_vector(model), (n, 1))
        self.activation_counts = np.zeros(n, dtype=np.int64)
        self.train_counts = np.zeros(n, dtype=np.int64)
        self.train_energy_wh = 0.0
        #: activation heap, owned here (not by ``run``) so mid-run
        #: checkpoints can capture pending event times
        self._queue: list[tuple[float, int]] | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def _may_train(self, i: int) -> bool:
        """Battery gate, checked *before* the policy so an exhausted
        node consumes no policy randomness."""
        if not self.enforce_budgets:
            return True
        assert self.trace is not None
        return bool(self.train_counts[i] < self.trace.budget_rounds[i])

    def _average(self, i: int, j: int) -> None:
        """Pairwise gossip average of rows ``i`` and ``j``, in place —
        the per-gossip hot path. Same add-then-halve operation order as
        ``0.5 * (s_i + s_j)``, so the result is bit-identical to the
        allocating form."""
        si, sj = self.state[i], self.state[j]
        np.add(si, sj, out=si)
        si *= 0.5
        sj[:] = si

    def _alive_at(self, time: float) -> np.ndarray | None:
        """Alive mask for the event at simulated ``time``: unit-rate
        clocks make ⌊time⌋ + 1 the async analogue of the (1-based)
        round index the failure models are defined over."""
        if self.failure_model is None:
            return None
        return self.failure_model.alive(int(time) + 1)

    def _advance_churn(self, t: int) -> None:
        """Apply every join handoff in rounds ``(_churn_round, t]``.

        Called by the batch a new round analogue opens; a joiner
        is seeded with the mean of its eligible (present ∧ alive)
        veteran neighbors at its join round, exactly once — the cursor
        round-trips through :meth:`state_dict`, so a resumed run never
        re-applies a handoff. A joiner that is itself dead at its join
        round enrolls without a handoff and keeps its frozen row (the
        sync engine's rule, applied identically)."""
        from ..scenarios.churn import apply_join_handoff

        assert self.churn is not None
        for r in range(self._churn_round + 1, t + 1):
            joiners = self.churn.joins_at(r)
            if joiners:
                present = self.churn.present(r)
                alive = (
                    self.failure_model.alive(r)
                    if self.failure_model is not None
                    else None
                )
                if alive is not None:
                    joiners = tuple(i for i in joiners if alive[i])
                eligible = present if alive is None else present & alive
                apply_join_handoff(
                    self.state, joiners, lambda i: self.neighbors[i], eligible
                )
        self._churn_round = t

    def _execute_batch(self, batch: EventBatch) -> None:
        """Apply one planned disjoint batch to the state matrix: churn
        handoffs first (the batch opener's serial position), then one
        stacked training pass over the batch's activators, then the
        pairwise gossip averages in original event order. All node sets
        in the batch are pairwise disjoint, so this ordering is
        arithmetically identical to the serial per-event interleaving.
        """
        if batch.churn_t is not None:
            self._advance_churn(batch.churn_t)
        self.local_trainer.train(self.state, batch.train_ids)
        for i, j in batch.gossips:
            self._average(i, j)

    def _evaluate(self, time: float, events: int) -> AsyncRecord:
        node_ids, consensus_rows = membership_eval_pool(
            self.state,
            self.churn.present(int(time) + 1) if self.churn is not None else None,
            self.eval_node_sample,
            self.eval_rng,
        )
        mean_acc, std_acc = evaluate_state(
            self.local_trainer.evaluator, self.state, self.test_set,
            node_ids=node_ids,
        )
        return AsyncRecord(
            time=time,
            activations=events,
            mean_accuracy=mean_acc,
            std_accuracy=std_acc,
            consensus=consensus_distance(consensus_rows),
            train_energy_wh=self.train_energy_wh,
        )

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete mid-run snapshot: state matrix, counters, the event
        heap, and every rng stream (events, evaluation, per-node batch
        sampling). Restoring it into a freshly constructed engine and
        continuing with ``run(start=...)`` is bit-identical to an
        uninterrupted run from any event boundary.

        ``state`` is the engine's own matrix, not a copy: write the
        snapshot out before the run goes on. A failure model that holds
        its own rng (``IndependentCrashes``) cannot round-trip and is
        refused; stateless window models are fine."""
        if self._queue is None:
            raise ValueError(
                "no event state to snapshot yet; state_dict captures a "
                "run in progress (run() initializes the event heap)"
            )
        if getattr(self.failure_model, "rng", None) is not None:
            raise ValueError(
                "async run checkpoints do not capture failure-model rng "
                "state; use a stateless failure model (CrashWindow) for "
                "checkpointed runs"
            )
        return {
            "state": self.state,
            "activation_counts": self.activation_counts.copy(),
            "train_counts": self.train_counts.copy(),
            "train_energy_wh": float(self.train_energy_wh),
            "queue_times": np.array([t for t, _ in self._queue],
                                    dtype=np.float64),
            "queue_ids": np.array([i for _, i in self._queue],
                                  dtype=np.int64),
            "rng": generator_state(self.rng),
            "eval_rng": generator_state(self.eval_rng),
            **self.nodes.state_dict(),
            "churn_round": int(self._churn_round),
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place. The engine
        must have been constructed exactly as for the original run;
        shape mismatches fail loudly."""
        state = np.asarray(sd["state"])
        if state.shape != self.state.shape:
            raise ValueError(
                f"snapshot state shape {state.shape} does not match "
                f"engine {self.state.shape}"
            )
        queue_ids = np.asarray(sd["queue_ids"], dtype=np.int64)
        queue_times = np.asarray(sd["queue_times"], dtype=np.float64)
        if queue_ids.shape != (self.n_nodes,):
            raise ValueError(
                f"snapshot has {queue_ids.shape[0]} pending events, "
                f"expected one per node ({self.n_nodes})"
            )
        self.nodes.load_state_dict(sd)
        self.state[...] = state
        self.activation_counts[...] = np.asarray(sd["activation_counts"],
                                                 dtype=np.int64)
        self.train_counts[...] = np.asarray(sd["train_counts"],
                                            dtype=np.int64)
        self.train_energy_wh = float(sd["train_energy_wh"])
        # A saved heap list restores as-is: list order preserves the
        # heap invariant.
        self._queue = [
            (float(t), int(i)) for t, i in zip(queue_times, queue_ids)
        ]
        self.rng = restore_generator(sd["rng"])
        self.eval_rng = restore_generator(sd["eval_rng"])
        self._churn_round = int(sd.get("churn_round", 0))

    # -- public API -----------------------------------------------------------

    def run(
        self,
        algorithm: AsyncPolicy,
        *,
        start: int = 0,
        history: AsyncHistory | None = None,
        hook: "Callable[[AsyncGossipEngine, int, AsyncHistory, int], None] | None" = None,
    ) -> AsyncHistory:
        """Simulate events ``start+1 .. total_events`` under the policy
        ``algorithm`` — the sync engine's contract, counted in events.

        Non-zero ``start`` resumes a run whose state was restored via
        :meth:`load_state_dict` (or
        :func:`~repro.simulation.checkpoint.load_run_checkpoint`);
        ``history`` appends to the interrupted record list. Every event
        boundary resumes exactly — the evaluation cadence is absolute in
        the event index and all randomness round-trips — so the first
        window after a mid-window resume is simply shorter. Each window
        is planned (:func:`~repro.simulation.event_batch.plan_window`),
        its disjoint batches executed, and the state evaluated; then
        ``hook(engine, at, history, resumable_at)`` runs with ``at`` the
        window's final event index and ``resumable_at == at``. The sweep
        orchestrator checkpoints from it.
        """
        history = self._begin(algorithm, start, history)
        total, eval_every = self.total_events, self.eval_every
        event = start
        while event < total:
            end = min((event // eval_every + 1) * eval_every, total)
            plan = plan_window(self, algorithm, event, end)
            for batch in plan.batches:
                self._execute_batch(batch)
            history.records.append(self._evaluate(plan.final_time, end))
            if hook is not None:
                hook(self, end, history, end)
            event = end
        return history

    def _begin(
        self, algorithm: AsyncPolicy, start: int, history: AsyncHistory | None
    ) -> AsyncHistory:
        """Check ``start``, arm the Poisson clocks of a fresh run and
        return the history to append to."""
        if not 0 <= start <= self.total_events:
            raise ValueError("start out of range")
        if start == 0:
            # Poisson clocks: next activation time per node
            self._queue = [
                (float(self.rng.exponential()), i) for i in range(self.n_nodes)
            ]
            heapq.heapify(self._queue)
        elif self._queue is None:
            raise ValueError(
                "start > 0 requires restored engine state (load_state_dict)"
            )
        if history is None:
            history = AsyncHistory(policy=algorithm.name, records=[])
        return history
