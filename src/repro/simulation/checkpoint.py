"""Engine checkpointing.

Long sweeps (the paper's FEMNIST runs are 3000 rounds) need restart
capability. Two granularities are provided, both written atomically
(tmp file + ``os.replace``) so a kill mid-write never leaves a corrupt
checkpoint behind:

* :func:`save_checkpoint` / :func:`load_checkpoint` — the original
  engine-only snapshot: state matrix, round counter, and the energy
  meter's accumulators (via the meter's public
  :meth:`~repro.energy.accounting.EnergyMeter.state_dict` API). The
  caller owns algorithm state and rng streams.
* :func:`save_run_checkpoint` / :func:`load_run_checkpoint` — the full
  mid-run snapshot the sweep orchestrator uses: everything above plus
  every node's batch-sampling rng position (the
  :class:`~repro.simulation.node_bank.NodeBank`'s packed ``node_rng``
  block — both run-checkpoint flavors store the same
  ``NodeBank.state_dict``), the evaluation rng, the algorithm's
  :meth:`~repro.core.base.Algorithm.state_dict`, and the
  :class:`~repro.simulation.metrics.RunHistory` accumulated so far. A
  killed 3000-round cell restored through this pair continues
  bit-for-bit: the resumed run's history and final state are exactly
  equal to an uninterrupted run's (provided the checkpoint was taken
  at an evaluation round — see :meth:`SimulationEngine.run`). Engine
  configurations whose state cannot be fully captured (momentum,
  stochastic compressors, rng-backed failure models) are rejected at
  save time; deterministic failure models (``CrashWindow``,
  ``NoFailures``) and churn schedules are pure functions of the round
  index and checkpoint fine.
* :func:`save_async_run_checkpoint` / :func:`load_async_run_checkpoint`
  — the same full-snapshot contract for the event-driven
  :class:`~repro.simulation.async_engine.AsyncGossipEngine`: the state
  matrix, activation/train counters, the pending-event heap, the
  event/evaluation/per-node rng streams (via the engine's
  ``state_dict``), the policy's state (budgets + coin rng for the
  constrained policy), and the :class:`AsyncHistory` so far. Because
  the async evaluation cadence is absolute in the event index and
  every random stream round-trips, a checkpoint taken at *any* event
  boundary resumes bit-for-bit — no evaluation-alignment caveat.
  Failure models that hold their own rng (``IndependentCrashes``) are
  rejected at save time; stateless ones (``CrashWindow``,
  ``NoFailures``) checkpoint fine. The vectorized async engine
  (``vectorized=True``, disjoint event batching) shares this format
  unchanged: batching only reorders state-matrix arithmetic inside a
  window, never the captured streams or counters, so either mode
  resumes a checkpoint the other wrote. A serial checkpoint taken at
  an event boundary *inside* a batch window simply starts the resumed
  vectorized run with a shorter first window (batched mode itself
  checkpoints at evaluation boundaries, where its hook fires).
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..core.base import Algorithm
from .async_engine import AsyncGossipEngine, AsyncHistory, AsyncPolicy, AsyncRecord
from .engine import SimulationEngine
from .metrics import RoundRecord, RunHistory
from .rng import generator_state, restore_generator

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "save_async_run_checkpoint",
    "load_async_run_checkpoint",
]


def _atomic_savez(path: str | os.PathLike, payload: dict) -> None:
    """Write an ``.npz`` atomically: a crash mid-write leaves only a
    ``.tmp`` file that the loader never looks at."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, path)


def _engine_payload(engine: SimulationEngine, round_index: int) -> dict:
    if round_index < 0:
        raise ValueError("round_index must be non-negative")
    payload = {
        "round_index": np.array(round_index, dtype=np.int64),
    }
    sharder = getattr(engine, "_node_sharder", None)
    if sharder is not None:
        # Node-sharded cells store the matrix as one block per shard —
        # contiguous ascending row ranges, so loaders reassemble it with
        # a single concatenate. The values are identical to the
        # unsharded "state" layout; only the npz key layout differs.
        for k, (lo, hi) in enumerate(sharder.blocks):
            payload[f"state_shard_{k}"] = engine.state[lo:hi]
    else:
        payload["state"] = engine.state
    if engine.meter is not None:
        payload.update(engine.meter.state_dict())
    return payload


def _archived_state(archive: np.lib.npyio.NpzFile) -> np.ndarray:
    """The checkpoint's state matrix, whichever layout wrote it: the
    plain ``state`` array, or ``state_shard_{k}`` blocks concatenated
    in shard order. Every loader accepts both, so sharded and unsharded
    processes can resume each other's checkpoints."""
    if "state" in archive:
        return archive["state"]
    shard_keys = sorted(
        (key for key in archive.files if key.startswith("state_shard_")),
        key=lambda key: int(key.rsplit("_", 1)[1]),
    )
    if not shard_keys:
        raise ValueError("checkpoint holds no state matrix")
    return np.concatenate([archive[key] for key in shard_keys], axis=0)


def _reject_old_layout(archive: np.lib.npyio.NpzFile) -> None:
    """Run checkpoints used to hold the node streams as ``node_rng_json``
    (one JSON dict per node); they now hold the bank's packed
    ``node_rng`` block. Checkpoints are per-cell scratch, so the old
    layout is refused rather than read."""
    if "node_rng_json" in archive:
        raise ValueError(
            "checkpoint uses the old per-node node_rng_json layout, which "
            "this version no longer reads; delete it and rerun the cell"
        )


def _restore_engine(engine: SimulationEngine, archive: np.lib.npyio.NpzFile) -> int:
    state = _archived_state(archive)
    if state.shape != engine.state.shape:
        raise ValueError(
            f"checkpoint state shape {state.shape} does not match "
            f"engine {engine.state.shape}"
        )
    engine.state[...] = state
    round_index = int(archive["round_index"])
    if engine.meter is not None:
        if "train_wh" not in archive:
            raise ValueError("checkpoint lacks energy-meter arrays")
        engine.meter.load_state_dict(
            {
                "train_wh": archive["train_wh"],
                "comm_wh": archive["comm_wh"],
                "train_rounds": archive["train_rounds"],
                "history_total": archive["history_total"],
            }
        )
    return round_index


def save_checkpoint(
    engine: SimulationEngine, round_index: int, path: str | os.PathLike
) -> None:
    """Persist the engine's round-dependent state after ``round_index``
    completed rounds."""
    _atomic_savez(path, _engine_payload(engine, round_index))


def load_checkpoint(
    engine: SimulationEngine, path: str | os.PathLike
) -> int:
    """Restore a checkpoint into ``engine`` (in place) and return the
    number of rounds already completed.

    The engine must have been constructed with the same model
    architecture and node count; mismatches fail loudly.
    """
    with np.load(path) as archive:
        return _restore_engine(engine, archive)


# --------------------------------------------------------------------------
# Full mid-run snapshots (engine + rng streams + algorithm + history)
# --------------------------------------------------------------------------

_HISTORY_FIELDS = (
    ("round", np.int64),
    ("mean_accuracy", np.float64),
    ("std_accuracy", np.float64),
    ("consensus", np.float64),
    ("cumulative_energy_wh", np.float64),
    ("trained_nodes", np.int64),
    ("is_training_round", np.bool_),
    ("train_loss", np.float64),
)


def save_run_checkpoint(
    engine: SimulationEngine,
    algorithm: Algorithm,
    history: RunHistory,
    round_index: int,
    path: str | os.PathLike,
) -> None:
    """Persist a complete mid-run snapshot after ``round_index``
    completed rounds: engine state/meter, every rng stream the run
    consumes, the algorithm's internal state, and the history so far.

    Engines whose round-dependent state this snapshot *cannot* capture
    are rejected up front rather than resumed divergently: momentum
    (the serial velocity buffer lives in the shared workspace
    optimizer), stochastic compressors (RandomK/Quantization hold
    their own rng), and rng-backed failure models
    (``IndependentCrashes``). Deterministic compressors are fine —
    their error-feedback public copies are checkpointed — and so are
    deterministic failure models and churn schedules, whose state is a
    pure function of the round index.
    """
    if engine.config.momentum > 0.0:
        raise ValueError(
            "run checkpoints do not capture the shared momentum velocity "
            "buffer; use momentum=0 for checkpointed runs"
        )
    if getattr(engine.failure_model, "rng", None) is not None:
        raise ValueError(
            "run checkpoints do not capture stochastic failure-model rng "
            "state; use a deterministic failure model (CrashWindow) for "
            "checkpointed runs"
        )
    if getattr(engine.compressor, "rng", None) is not None:
        raise ValueError(
            "run checkpoints do not capture stochastic compressor rng "
            "state; use a deterministic compressor"
        )
    payload = _engine_payload(engine, round_index)
    payload.update(engine.nodes.state_dict())
    payload["eval_rng_json"] = np.array(json.dumps(generator_state(engine.eval_rng)))
    payload["algo_name"] = np.array(algorithm.name)
    payload["algo_json"] = np.array(json.dumps(algorithm.state_dict()))
    payload["history_algorithm"] = np.array(history.algorithm)
    for field, dtype in _HISTORY_FIELDS:
        payload[f"hist_{field}"] = np.array(
            [getattr(r, field) for r in history.records], dtype=dtype
        )
    if engine._public is not None:
        payload["public"] = engine._public
    _atomic_savez(path, payload)


def load_run_checkpoint(
    engine: SimulationEngine,
    algorithm: Algorithm,
    path: str | os.PathLike,
) -> tuple[int, RunHistory]:
    """Restore a :func:`save_run_checkpoint` snapshot into ``engine``
    and ``algorithm`` (both in place) and return ``(completed_rounds,
    history_so_far)``. Resume with::

        round_index, history = load_run_checkpoint(engine, algo, path)
        engine.run(algo, start_round=round_index, history=history)

    ``engine`` and ``algorithm`` must be freshly constructed exactly as
    for the original run (same preset/seed wiring); name and shape
    mismatches fail loudly.
    """
    with np.load(path) as archive:
        _reject_old_layout(archive)
        if "node_rng" not in archive:
            raise ValueError(
                "not a run checkpoint (engine-only checkpoints restore "
                "via load_checkpoint)"
            )
        round_index = _restore_engine(engine, archive)
        engine.nodes.load_state_dict(
            {key: archive[key] for key in ("node_rng", "node_steps_done")}
        )
        engine.eval_rng = restore_generator(json.loads(str(archive["eval_rng_json"])))
        saved_name = str(archive["algo_name"])
        if saved_name != algorithm.name:
            raise ValueError(
                f"checkpoint was taken with algorithm {saved_name!r}, "
                f"got {algorithm.name!r}"
            )
        algorithm.load_state_dict(json.loads(str(archive["algo_json"])))
        if "public" in archive:
            engine._public = archive["public"]
        records = [
            RoundRecord(
                round=int(rnd),
                mean_accuracy=float(acc),
                std_accuracy=float(std),
                consensus=float(cons),
                cumulative_energy_wh=float(wh),
                trained_nodes=int(trained),
                is_training_round=bool(is_train),
                train_loss=float(loss),
            )
            for rnd, acc, std, cons, wh, trained, is_train, loss in zip(
                *(archive[f"hist_{field}"] for field, _ in _HISTORY_FIELDS)
            )
        ]
        history = RunHistory(algorithm=str(archive["history_algorithm"]),
                             records=records)
    return round_index, history


# --------------------------------------------------------------------------
# Async mid-run snapshots (event heap + rng streams + policy + history)
# --------------------------------------------------------------------------

_ASYNC_HISTORY_FIELDS = (
    ("time", np.float64),
    ("activations", np.int64),
    ("mean_accuracy", np.float64),
    ("std_accuracy", np.float64),
    ("consensus", np.float64),
    ("train_energy_wh", np.float64),
)


def save_async_run_checkpoint(
    engine: AsyncGossipEngine,
    policy: AsyncPolicy,
    history: AsyncHistory,
    event_index: int,
    path: str | os.PathLike,
) -> None:
    """Persist a complete mid-run snapshot of an async gossip run after
    ``event_index`` completed events: the engine's
    :meth:`~repro.simulation.async_engine.AsyncGossipEngine.state_dict`
    (state matrix, counters, event heap, every rng stream), the
    policy's state, and the history so far. Any event boundary resumes
    bit-for-bit.

    Failure models holding their own rng (``IndependentCrashes``)
    cannot round-trip and are rejected up front; stateless window
    models are fine.
    """
    if event_index < 0:
        raise ValueError("event_index must be non-negative")
    if getattr(engine.failure_model, "rng", None) is not None:
        raise ValueError(
            "async run checkpoints do not capture failure-model rng "
            "state; use a stateless failure model (CrashWindow) for "
            "checkpointed runs"
        )
    sd = engine.state_dict()
    payload = {
        "state": sd["state"],
        "event_index": np.array(event_index, dtype=np.int64),
        "activation_counts": sd["activation_counts"],
        "train_counts": sd["train_counts"],
        "train_energy_wh": np.array(sd["train_energy_wh"], dtype=np.float64),
        "queue_times": sd["queue_times"],
        "queue_ids": sd["queue_ids"],
        "event_rng_json": np.array(json.dumps(sd["rng"])),
        "eval_rng_json": np.array(json.dumps(sd["eval_rng"])),
        "node_rng": sd["node_rng"],
        "node_steps_done": sd["node_steps_done"],
        "policy_name": np.array(policy.name),
        "policy_json": np.array(json.dumps(policy.state_dict())),
        "history_policy": np.array(history.policy),
        "churn_round": np.array(sd.get("churn_round", 0), dtype=np.int64),
    }
    for field, dtype in _ASYNC_HISTORY_FIELDS:
        payload[f"hist_{field}"] = np.array(
            [getattr(r, field) for r in history.records], dtype=dtype
        )
    _atomic_savez(path, payload)


def load_async_run_checkpoint(
    engine: AsyncGossipEngine,
    policy: AsyncPolicy,
    path: str | os.PathLike,
) -> tuple[int, AsyncHistory]:
    """Restore a :func:`save_async_run_checkpoint` snapshot into
    ``engine`` and ``policy`` (both in place) and return
    ``(completed_events, history_so_far)``. Resume with::

        event_index, history = load_async_run_checkpoint(engine, policy, path)
        engine.run(policy, activations_per_node,
                   start_event=event_index, history=history)

    ``engine`` and ``policy`` must be freshly constructed exactly as
    for the original run; name and shape mismatches fail loudly.
    """
    with np.load(path) as archive:
        if "queue_times" not in archive:
            raise ValueError(
                "not an async run checkpoint (synchronous checkpoints "
                "restore via load_run_checkpoint)"
            )
        _reject_old_layout(archive)
        saved_name = str(archive["policy_name"])
        if saved_name != policy.name:
            raise ValueError(
                f"checkpoint was taken with policy {saved_name!r}, "
                f"got {policy.name!r}"
            )
        engine.load_state_dict(
            {
                "state": archive["state"],
                "activation_counts": archive["activation_counts"],
                "train_counts": archive["train_counts"],
                "train_energy_wh": float(archive["train_energy_wh"]),
                "queue_times": archive["queue_times"],
                "queue_ids": archive["queue_ids"],
                "rng": json.loads(str(archive["event_rng_json"])),
                "eval_rng": json.loads(str(archive["eval_rng_json"])),
                "node_rng": archive["node_rng"],
                "node_steps_done": archive["node_steps_done"],
                "churn_round": (
                    int(archive["churn_round"])
                    if "churn_round" in archive
                    else 0
                ),
            }
        )
        policy.load_state_dict(json.loads(str(archive["policy_json"])))
        records = [
            AsyncRecord(
                time=float(time),
                activations=int(events),
                mean_accuracy=float(acc),
                std_accuracy=float(std),
                consensus=float(cons),
                train_energy_wh=float(wh),
            )
            for time, events, acc, std, cons, wh in zip(
                *(archive[f"hist_{field}"] for field, _ in _ASYNC_HISTORY_FIELDS)
            )
        ]
        history = AsyncHistory(policy=str(archive["history_policy"]),
                               records=records)
        event_index = int(archive["event_index"])
    return event_index, history
