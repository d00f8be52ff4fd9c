"""Disjoint event batching for the async gossip engine.

Executing events one at a time — the serial event loop, which the test
suite keeps as its oracle — pays one training call plus one gossip per
activation event. The windows planned here amortize that cost: between two
trajectory-observable boundaries (evaluation events — and therefore
checkpoint points, which land on them), events are packed into batches
whose (activator, partner) node sets are pairwise disjoint, so each
batch's local training runs as one pass through the stacked
:mod:`repro.nn.batched` kernels.

Plan/execute split
------------------
Everything an event consumes from the *shared* randomness and counter
state is order-sensitive but state-independent: the heap pop/push, the
partner draw and inter-activation exponential, the policy decision
(including the constrained policy's coin), the activation/training
counters and the energy accumulator. :func:`plan_window` therefore
replays the serial loop's exact per-event sequence of those effects up
front — consuming the event and policy rng streams bit-for-bit as the
serial loop would — while deferring every *state-matrix* effect
(training, gossip averaging, churn join handoffs) into an ordered list
of :class:`EventBatch` instructions the engine executes afterwards.

Batch assignment is level scheduling over node conflicts: an event
lands in the earliest batch after the current barrier in which neither
its activator nor its partner has been touched. Within a batch all node
sets are pairwise disjoint, so training the batch's activators in one
stacked pass and then applying its gossip averages in original event
order is arithmetically identical to the serial interleaving. Two
orderings make the equivalence exact rather than approximate:

* **Churn rounds are barriers.** A join handoff reads neighbor rows
  and writes the joiner's row, so the first event at a new churn round
  opens a fresh batch and every later event stays at or after it; the
  handoff executes before the batch's training, exactly where the
  serial loop performs it.
* **Per-node chains stay ordered.** A node touched by two events is
  scheduled into strictly increasing batches, so its training-batch
  rng stream and its row's read/write order match the serial loop.

The resulting trajectory — state matrix, counters, every rng stream,
history records — is bit-identical to the serial event loop, which the
oracle ≡ product batteries assert rather than trust.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .async_engine import AsyncGossipEngine, AsyncPolicy

__all__ = ["EventBatch", "WindowPlan", "plan_window"]


@dataclass
class EventBatch:
    """One executable batch: all node sets pairwise disjoint.

    ``churn_t`` is the churn round to advance to *before* the batch's
    training (set only on the batch a churn round opened);
    ``train_ids`` the activators to train, and ``gossips`` the
    (activator, partner) averages to apply after training — both in
    original event order.
    """

    churn_t: int | None = None
    train_ids: list[int] = field(default_factory=list)
    gossips: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class WindowPlan:
    """The planned batches for one inter-boundary window, plus the
    simulated time of the window's final event (the evaluation
    timestamp the serial loop would record)."""

    final_time: float
    batches: list[EventBatch]


def plan_window(
    engine: "AsyncGossipEngine",
    policy: "AsyncPolicy",
    start_event: int,
    end_event: int,
) -> WindowPlan:
    """Plan events ``start_event+1 .. end_event`` into disjoint batches.

    Consumes the engine's event rng (partner choices + exponential
    clocks), the policy's decision stream, the event heap, and the
    activation/training/energy counters in exactly the serial loop's
    per-event order — after this returns, all of them hold their
    end-of-window values and only the state matrix still needs the
    returned batches applied (:meth:`AsyncGossipEngine._execute_batch`).
    """
    if engine._queue is None:
        raise ValueError("plan_window requires an initialized event heap")
    batches: list[EventBatch] = []
    # batch index of the last event that touched each node's row, -1 for
    # untouched rows; the level-scheduling conflict ledger (a plain list:
    # it is read and written one or two entries at a time)
    last_batch = [-1] * engine.n_nodes
    barrier = 0
    planned_churn = engine._churn_round
    time = 0.0
    for _ in range(start_event + 1, end_event + 1):
        time, i = heapq.heappop(engine._queue)
        t = int(time) + 1
        churn_t: int | None = None
        if engine.churn is not None and t > planned_churn:
            churn_t = t
            planned_churn = t
        eligible = engine._eligible(t)
        trains = False
        partner: int | None = None
        if eligible is None or eligible[i]:
            engine.activation_counts[i] += 1
            if engine._may_train(i) and policy.should_train(
                i, int(engine.activation_counts[i])
            ):
                # counters and the energy float-sum advance at plan
                # time: _may_train reads train_counts during lookahead,
                # and accumulating in event order keeps the float
                # addition order — hence the bits — serial-identical
                trains = True
                engine.train_counts[i] += 1
                if engine.trace is not None:
                    engine.train_energy_wh += engine.trace.train_energy_wh[i]
            # the round's matrix is masked: every neighbor is eligible
            candidates = engine._neighbors(t)[i]
            if candidates.size:
                partner = int(engine.rng.choice(candidates))
            # whole neighborhood down/absent: train-only, no rng draw
        # dead/absent nodes stay silent but their clock keeps ticking
        heapq.heappush(
            engine._queue, (time + float(engine.rng.exponential()), i)
        )

        touched = (i, partner) if partner is not None else (i,)
        if churn_t is not None:
            # churn rounds are barriers: the handoff reads/writes rows,
            # so it opens a fresh batch that no later event may precede
            b = len(batches)
            batches.append(EventBatch(churn_t=churn_t))
            barrier = b
        elif trains or partner is not None:
            last = last_batch[i]
            if partner is not None and last_batch[partner] > last:
                last = last_batch[partner]
            b = max(barrier, last + 1)
            while len(batches) <= b:
                batches.append(EventBatch())
        else:
            # plan-only no-op (ineligible, no churn): touches no row
            continue
        if trains or partner is not None:
            for node in touched:
                last_batch[node] = b
            if trains:
                batches[b].train_ids.append(i)
            if partner is not None:
                batches[b].gossips.append((i, partner))
    return WindowPlan(final_time=time, batches=batches)
