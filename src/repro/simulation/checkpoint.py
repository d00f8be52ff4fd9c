"""Run checkpoints: one envelope for both engines.

Long sweeps (the paper's FEMNIST runs are 3000 rounds) need restart
capability. :func:`save_run_checkpoint` / :func:`load_run_checkpoint`
are the one pair that provides it, for the synchronous
:class:`~repro.simulation.engine.SimulationEngine` and the event-driven
:class:`~repro.simulation.async_engine.AsyncGossipEngine` alike. A
checkpoint is one ``.npz``, written atomically (tmp file +
``os.replace``, so a kill mid-write never leaves a corrupt file), that
holds:

* the stamp — ``format`` (this layout's version) and ``kind`` (which
  engine wrote it);
* the engine's own ``state_dict()``: its arrays under their own names
  (``state`` is always the one whole matrix) and everything else as one
  JSON object;
* the algorithm's (or async policy's) name and JSON ``state_dict()``;
* the history so far, one column per record field
  (:meth:`RoundRecord.to_columns` / :meth:`AsyncRecord.to_columns`),
  and the index — completed rounds or events — it was taken at.

A fresh engine + algorithm, built exactly as for the original run and
restored through this pair, continues bit-for-bit: history and final
state equal an uninterrupted run's. A synchronous run resumes exactly
from any round, because its evaluation cadence continues from the
history's last record; an async run from any event boundary, even one
inside an event window, because its evaluation cadence is absolute in
the event index and batching never reorders a captured stream.

The loader checks the stamp, the algorithm name and every shape before
it touches engine, algorithm or node bank, and then reads the ``state``
matrix straight into the engine's own, so a resume never holds a second
``(n, dim)`` matrix. A file without this stamp
(any older layout) or of the other kind is refused: checkpoints are
per-cell scratch, so the remedy is to delete the file and rerun the
cell; finished artifacts are unaffected.

What a checkpoint captures, beside the history and the algorithm's
state: the state matrix, every node's batch-stream position, the
evaluation rng, the energy meter's accumulators, a compressor's
error-feedback public copies and a stochastic compressor's rng, and for
the async engine its counters, event heap, event rng and churn cursor.
Nothing else carries run state: the engines train with plain SGD, so
there is no optimizer state, and failure models (``CrashWindow`` and
``IndependentCrashes``, which draws round ``t`` from its own seeded
stream) and churn schedules are pure functions of the round index.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from ..core.base import Algorithm
from .async_engine import AsyncGossipEngine, AsyncHistory, AsyncPolicy, AsyncRecord
from .engine import SimulationEngine
from .metrics import RoundRecord, RunHistory

__all__ = ["save_run_checkpoint", "load_run_checkpoint"]

_FORMAT = "repro/run-checkpoint/v1"

#: the envelope's own keys; ``hist_*`` are the history columns and every
#: other key is an array of the engine's ``state_dict``
_ENVELOPE = ("format", "kind", "at", "name", "algo_json", "history_label",
             "engine_json")

#: (engine class, kind tag, history class, record class, the history
#: attribute that names the algorithm) — what differs by kind, as data;
#: the async engine is a sync engine subclass, so its row comes first
_KINDS: tuple[tuple[type[Any], str, type[Any], type[Any], str], ...] = (
    (AsyncGossipEngine, "async", AsyncHistory, AsyncRecord, "policy"),
    (SimulationEngine, "sync", RunHistory, RoundRecord, "algorithm"),
)


def _kind_of(
    engine: SimulationEngine | AsyncGossipEngine,
) -> tuple[str, type[Any], type[Any], str]:
    """``engine``'s row of :data:`_KINDS`, without the engine class."""
    for engine_cls, kind, history_cls, record_cls, label in _KINDS:
        if isinstance(engine, engine_cls):
            return kind, history_cls, record_cls, label
    raise TypeError(f"no checkpoint kind for engine {type(engine).__name__}")


def _atomic_savez(path: str | os.PathLike[str], payload: dict[str, Any]) -> None:
    """Write an ``.npz`` atomically: a crash mid-write leaves only a
    ``.tmp`` file that the loader never looks at."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, path)


def _open_matrix(archive: Any, key: str, like: np.ndarray) -> Any:
    """The ``.npy`` member ``key`` of ``archive``, opened and read up to
    its data once its header says it holds an array of ``like``'s
    shape, dtype and C order."""
    member = archive.zip.open(key + ".npy")
    version = np.lib.format.read_magic(member)
    read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}.get(version)
    shape, fortran, dtype = read_header(member) if read_header else (None,) * 3
    if (shape, fortran, dtype) != (like.shape, False, like.dtype):
        member.close()
        raise ValueError(
            f"snapshot {key} shape {shape} ({dtype}, fortran order "
            f"{fortran}) does not match engine {like.shape} ({like.dtype})"
        )
    return member


def _read_into(member: Any, out: np.ndarray) -> None:
    """Fill the C-contiguous ``out`` from ``member``'s data, 256 KiB at a
    time (``np.load``'s read size)."""
    view = memoryview(out.reshape(-1)).cast("B")
    for lo in range(0, len(view), 1 << 18):
        chunk = view[lo : lo + (1 << 18)]
        if member.readinto(chunk) != len(chunk):
            raise ValueError("snapshot state is truncated")


def save_run_checkpoint(
    engine: SimulationEngine | AsyncGossipEngine,
    algorithm: Algorithm | AsyncPolicy,
    history: RunHistory | AsyncHistory,
    at: int,
    path: str | os.PathLike[str],
) -> None:
    """Persist a complete mid-run snapshot after ``at`` completed rounds
    (sync) or events (async): the engine's ``state_dict``, the
    algorithm's or policy's state, and the history so far (see the
    module docstring for what the engine's part holds)."""
    if at < 0:
        raise ValueError("checkpoint index must be non-negative")
    kind, _, record_cls, label = _kind_of(engine)
    payload: dict[str, Any] = {}
    scalars: dict[str, Any] = {}
    for key, value in engine.state_dict().items():
        (payload if isinstance(value, np.ndarray) else scalars)[key] = value
    payload.update(
        format=np.array(_FORMAT),
        kind=np.array(kind),
        at=np.array(at, dtype=np.int64),
        name=np.array(algorithm.name),
        algo_json=np.array(json.dumps(algorithm.state_dict())),
        history_label=np.array(getattr(history, label)),
        engine_json=np.array(json.dumps(scalars)),
    )
    for field, column in record_cls.to_columns(history.records).items():
        payload[f"hist_{field}"] = column
    _atomic_savez(path, payload)


def load_run_checkpoint(
    engine: SimulationEngine | AsyncGossipEngine,
    algorithm: Algorithm | AsyncPolicy,
    path: str | os.PathLike[str],
) -> tuple[int, Any]:
    """Restore a :func:`save_run_checkpoint` snapshot into ``engine``
    and ``algorithm`` (both in place) and return ``(at, history so
    far)``. Resume either engine with::

        at, history = load_run_checkpoint(engine, algo, path)
        engine.run(algo, start=at, history=history)

    ``engine`` and ``algorithm`` must be freshly constructed exactly as
    for the original run (same preset/seed wiring). An unstamped file,
    one of the other kind, another algorithm's, or one whose shapes do
    not fit raises ``ValueError`` before either is touched. Then the
    engine restores its ``state_dict`` and the ``state`` member is read
    straight into ``engine.state``, with no second copy; an algorithm
    that refuses its state after that, or a file that breaks off
    mid-read, leaves the engine part-restored, to be rebuilt.
    """
    kind, history_cls, record_cls, _ = _kind_of(engine)
    with np.load(path) as archive:
        if "format" not in archive or str(archive["format"]) != _FORMAT:
            raise ValueError(
                f"{os.fspath(path)} is not a {_FORMAT} checkpoint (an older "
                f"or foreign layout, which this version does not read); "
                f"delete it and rerun the cell"
            )
        saved_kind = str(archive["kind"])
        if saved_kind != kind:
            raise ValueError(
                f"checkpoint was taken from a {saved_kind} engine, got a "
                f"{kind} engine; delete it and rerun the cell"
            )
        saved_name = str(archive["name"])
        if saved_name != algorithm.name:
            raise ValueError(
                f"checkpoint was taken with algorithm {saved_name!r}, "
                f"got {algorithm.name!r}"
            )
        sd: dict[str, Any] = json.loads(str(archive["engine_json"]))
        columns = {}
        for key in archive.files:
            if key.startswith("hist_"):
                columns[key[len("hist_"):]] = archive[key]
            elif key not in _ENVELOPE and key != "state":
                sd[key] = archive[key]
        history = history_cls(
            str(archive["history_label"]), record_cls.from_columns(columns)
        )
        with _open_matrix(archive, "state", engine.state) as member:
            # the engine checks every other shape before it changes
            # anything; assigning its own matrix to itself copies nothing
            engine.load_state_dict({**sd, "state": engine.state})
            _read_into(member, engine.state)
        algorithm.load_state_dict(json.loads(str(archive["algo_json"])))
        return int(archive["at"]), history
