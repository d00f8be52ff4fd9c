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

The engine is a :class:`~repro.simulation.engine.SimulationEngine`
that replaces only ``run``: construction, the state matrix, the local
trainer, evaluation, the churn handoff and the checkpoint core are the
sync engine's. What is its own is the event machinery — the Poisson
heap, the policies, the activation/training counters and the
event-order training-energy sum. It composes with the same scenario
axes, over the round analogue ``t = ⌊time⌋ + 1`` (unit-rate Poisson
clocks make one unit of simulated time the async analogue of one
round):

* **Topology** — a node's partner candidates are its neighbors in round
  ``t``'s mixing matrix (static or a dynamic topology, masked by the
  engine to the round's eligible nodes), read once per round.
* **Failures** — a :class:`~repro.simulation.failures.FailureModel`.
  A dead node does not activate (no training, no gossip, its
  activation counter pauses) and is never chosen as a gossip partner;
  an alive node whose entire neighborhood is down trains normally but
  skips the gossip step.
* **Battery budgets** — with ``enforce_budgets=True`` the engine stops
  a node from training once its τᵢ budget
  (:attr:`~repro.energy.traces.EnergyTrace.budget_rounds`) is spent,
  regardless of the policy (engine-level battery depletion; the
  constrained policy additionally rations its coin flips).
* **Churn** — a :class:`~repro.scenarios.churn.ChurnSchedule`. A node
  that has not joined (or has left) never activates and is never
  chosen as a gossip partner; on its join round it is seeded with the
  mean of its eligible neighbors' states, exactly once (the engine
  keeps a cursor of the last handoff-applied round, which checkpoints
  with the rest of the state).

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
Events run in windows, one per evaluation boundary, planned by
:func:`~repro.simulation.event_batch.plan_window` into disjoint batches
that train as one stacked pass each — bit-identical to executing the
events one at a time, the test suite's oracle. The run's ``hook`` fires
once per window, but *resuming* works from any event boundary: the
evaluation cadence is absolute in the event index, so a run resumed
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
from .engine import EngineConfig, SimulationEngine
from .event_batch import EventBatch, plan_window
from .metrics import _Accuracies, _RecordCodec
from .node_bank import NodeBank
from .rng import generator_state, restore_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.churn import ChurnSchedule
    from ..topology.sparse import Csr
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
class AsyncHistory(_Accuracies):
    """Metrics of one asynchronous run."""

    policy: str
    records: list[AsyncRecord]


class AsyncGossipEngine(SimulationEngine):
    """Event-driven pairwise-gossip simulator on the sync engine's core.

    Construction is the sync engine's: ``mixing`` (a matrix or a
    per-round provider) is the graph, ``config`` the hyperparameters
    and horizon, counted per node: a run lasts ``n × total_rounds``
    events and evaluates every ``n × eval_every`` — one expected
    activation per node is one round. ``rng`` drives the Poisson clocks
    and partner draws; ``trace`` the training-energy sum (there is no
    meter); ``enforce_budgets`` stops a node once its battery budget is
    spent. ``eval_rng`` drives evaluation-time node subsampling only
    and defaults to a child spawned off ``rng`` — spawning never
    advances ``rng``, so the trajectory is the same whether or how often
    the engine evaluates (restored generators cannot spawn: pass one
    from the :class:`~repro.simulation.rng.RngFactory` instead).
    """

    #: a cache of the mixing matrix's rows, read again from it on a miss
    _CHECKPOINT_EXEMPT = ("_round_rows",)

    def __init__(
        self,
        model: Module,
        nodes: NodeBank,
        mixing: "Csr | Callable[[int], Csr]",
        config: EngineConfig,
        test_set: ArrayDataset,
        *,
        rng: np.random.Generator,
        trace: EnergyTrace | None = None,
        eval_rng: np.random.Generator | None = None,
        failure_model: "FailureModel | None" = None,
        churn: "ChurnSchedule | None" = None,
        enforce_budgets: bool = False,
    ) -> None:
        super().__init__(
            model, nodes, mixing, config, test_set,
            eval_rng=eval_rng if eval_rng is not None else rng.spawn(1)[0],
            failure_model=failure_model, churn=churn,
        )
        n = self.n_nodes
        if trace is not None and trace.n_nodes != n:
            raise ValueError("trace node count mismatch")
        if enforce_budgets and trace is None:
            raise ValueError("enforce_budgets requires an energy trace")
        self.total_events = n * config.total_rounds
        self.eval_every = n * config.eval_every
        self.rng = rng
        self.trace = trace
        self.enforce_budgets = enforce_budgets
        #: last (1-based) round whose join handoffs have been applied —
        #: the one piece of churn state that must checkpoint (membership
        #: itself is a pure function of the round index)
        self._churn_round = 0
        self.activation_counts = np.zeros(n, dtype=np.int64)
        self.train_counts = np.zeros(n, dtype=np.int64)
        self.train_energy_wh = 0.0
        #: activation heap, owned here (not by ``run``) so mid-run
        #: checkpoints can capture pending event times
        self._queue: list[tuple[float, int]] | None = None
        #: (round, every node's neighbors in it) of the last round read
        self._round_rows: tuple[int, list[np.ndarray]] | None = None

    def _neighbors(self, t: int) -> list[np.ndarray]:
        """Every node's neighbors in round ``t``: the rows of the round's
        mixing matrix minus the diagonal, in CSR order (ascending, as in
        a :class:`~repro.topology.sparse.NeighborList`), read once per
        round."""
        if self._round_rows is None or self._round_rows[0] != t:
            off = self._mixing_for_round(t).off_diagonal()
            self._round_rows = (t, np.split(off.indices, off.indptr[1:-1]))
        return self._round_rows[1]

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

    def _execute_batch(self, batch: EventBatch) -> None:
        """Apply one planned disjoint batch to the state matrix: the join
        handoffs of every round in ``(_churn_round, churn_t]`` first
        (the batch opener's serial position, through the sync engine's
        :meth:`_apply_churn`), then one stacked training pass over the
        batch's activators, then the pairwise gossip averages in
        original event order. All node sets in the batch are pairwise
        disjoint, so this ordering is arithmetically identical to the
        serial per-event interleaving."""
        if batch.churn_t is not None:
            assert self.churn is not None
            for r in range(self._churn_round + 1, batch.churn_t + 1):
                self._apply_churn(r)
            self._churn_round = batch.churn_t
        self.local_trainer.train(self.state, batch.train_ids)
        for i, j in batch.gossips:
            self._average(i, j)

    def _evaluate_at(self, time: float, events: int) -> AsyncRecord:
        mean_acc, std_acc, consensus = self._measure(int(time) + 1)
        return AsyncRecord(
            time=time,
            activations=events,
            mean_accuracy=mean_acc,
            std_accuracy=std_acc,
            consensus=consensus,
            train_energy_wh=self.train_energy_wh,
        )

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """The sync engine's snapshot plus the event state: counters,
        the event heap, the event rng and the churn cursor. Restoring it
        into a freshly constructed engine and continuing with
        ``run(start=...)`` is bit-identical to an uninterrupted run from
        any event boundary."""
        if self._queue is None:
            raise ValueError(
                "no event state to snapshot yet; state_dict captures a "
                "run in progress (run() initializes the event heap)"
            )
        return {
            **super().state_dict(),
            "activation_counts": self.activation_counts.copy(),
            "train_counts": self.train_counts.copy(),
            "train_energy_wh": float(self.train_energy_wh),
            "queue_times": np.array([t for t, _ in self._queue],
                                    dtype=np.float64),
            "queue_ids": np.array([i for _, i in self._queue],
                                  dtype=np.int64),
            "rng": generator_state(self.rng),
            "churn_round": int(self._churn_round),
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place. Every shape is
        checked and every rng restored before anything moves, so a
        refused snapshot leaves the engine untouched."""
        arrays = {
            "activation_counts": np.asarray(sd["activation_counts"],
                                            dtype=np.int64),
            "train_counts": np.asarray(sd["train_counts"], dtype=np.int64),
            "queue_times": np.asarray(sd["queue_times"], dtype=np.float64),
            "queue_ids": np.asarray(sd["queue_ids"], dtype=np.int64),
        }
        for name, arr in arrays.items():
            if arr.shape != (self.n_nodes,):
                raise ValueError(
                    f"snapshot {name} shape {arr.shape} does not match "
                    f"one entry per node ({self.n_nodes})"
                )
        rng = restore_generator(sd["rng"])
        super().load_state_dict(sd)
        self.activation_counts[...] = arrays["activation_counts"]
        self.train_counts[...] = arrays["train_counts"]
        self.train_energy_wh = float(sd["train_energy_wh"])
        # A saved heap list restores as-is: list order preserves the
        # heap invariant.
        self._queue = [
            (float(t), int(i))
            for t, i in zip(arrays["queue_times"], arrays["queue_ids"])
        ]
        self.rng = rng
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
        Each window is planned, its batches executed and the state
        evaluated; then ``hook(engine, at, history, last_eval)`` runs
        with ``at`` the window's final event, which is also the last
        evaluation point, ``last_eval == at``.
        Non-zero ``start`` resumes a run restored by
        :meth:`load_state_dict` from any event boundary, appending to
        ``history``.
        """
        history = self._begin(algorithm, start, history)
        total, eval_every = self.total_events, self.eval_every
        event = start
        while event < total:
            end = min((event // eval_every + 1) * eval_every, total)
            plan = plan_window(self, algorithm, event, end)
            for batch in plan.batches:
                self._execute_batch(batch)
            history.records.append(self._evaluate_at(plan.final_time, end))
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
