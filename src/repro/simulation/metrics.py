"""Evaluation metrics: per-node accuracy, consensus distance, and the
record container the engine fills in during a run.

Node models are evaluated by :class:`repro.nn.batched.BatchedEvaluator`
(one stacked forward per test batch for all nodes at once); one flat
vector — the consensus model, a fairness probe — by
:func:`evaluate_model_vector`. Both count correct top-1 predictions
directly, so a node's accuracy is exactly equal either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.module import Module
from ..nn.serialization import set_parameter_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nn.batched import BatchedEvaluator

__all__ = [
    "evaluate_state",
    "evaluate_model_vector",
    "consensus_distance",
    "membership_eval_pool",
    "RoundRecord",
    "RunHistory",
]


def membership_eval_pool(
    state: np.ndarray,
    present: np.ndarray | None,
    eval_node_sample: int | None,
    eval_rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation coordinates of one evaluation point, shared by both
    engines so the semantics cannot drift apart: returns ``(node_ids,
    consensus_rows)`` where ``node_ids`` is the (possibly subsampled)
    set of member nodes to evaluate and ``consensus_rows`` the member
    rows the consensus distance is computed over. Under churn
    ``present`` is the membership mask, and a departed (or
    not-yet-joined) node's stale row enters neither; ``None`` makes
    every node a member."""
    if present is None:
        pool = np.arange(state.shape[0])
    else:
        pool = np.nonzero(np.asarray(present, dtype=bool))[0]
    if eval_node_sample is not None and eval_node_sample < pool.size:
        node_ids = pool[
            eval_rng.choice(pool.size, size=eval_node_sample, replace=False)
        ]
    else:
        node_ids = pool
    return node_ids, state if present is None else state[pool]


def evaluate_model_vector(
    model: Module,
    vec: np.ndarray,
    dataset: ArrayDataset,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy of the flat parameter vector ``vec`` on ``dataset``,
    using ``model`` as a reusable workspace.

    Correct predictions are counted directly (``argmax == y`` sum per
    batch) rather than reconstructed from a per-batch accuracy ratio —
    the count is exact integer arithmetic, shared with the batched
    evaluator's per-node counts.
    """
    set_parameter_vector(model, vec)
    model.eval()
    correct = 0
    n = len(dataset)
    for start in range(0, n, batch_size):
        xb = dataset.x[start : start + batch_size]
        yb = dataset.y[start : start + batch_size]
        logits = model(xb)
        correct += int((np.argmax(logits, axis=1) == yb).sum())
    model.train()
    return correct / n


def evaluate_state(
    evaluator: "BatchedEvaluator",
    state: np.ndarray,
    dataset: ArrayDataset,
    node_ids: np.ndarray | None = None,
    batch_size: int = 256,
) -> tuple[float, float]:
    """Mean and std of per-node test accuracy (the paper's headline
    metric), from ``evaluator``'s stacked forward passes over the rows
    of ``state``. ``node_ids`` restricts evaluation to a subsample of
    nodes — evaluating all 256 node models every time is the dominant
    cost of a faithful run, and the mean over a random subsample is
    unbiased.
    """
    n = state.shape[0]
    ids = np.arange(n) if node_ids is None else np.asarray(node_ids)
    accs = evaluator.evaluate(state, dataset, node_ids=ids, batch_size=batch_size)
    return float(accs.mean()), float(accs.std())


#: Elements ``np.einsum`` reduces per inner-loop call: its iterator's
#: default buffer (numpy's ``NPY_BUFSIZE``), which ``np.setbufsize``
#: does not change.
EINSUM_BUFFER = 8192


def consensus_distance(state: np.ndarray) -> float:
    """Mean squared distance of node models from their average:
    ``(1/n) Σᵢ ‖xᵢ − x̄‖²``. Synchronization rounds shrink this; training
    rounds on non-IID data grow it.

    ``state - mean`` streams through one :data:`EINSUM_BUFFER`-element
    buffer instead of being built whole. ``np.einsum`` adds a contiguous
    operand's buffers to its total one at a time, so the chunks' einsums
    summed in order are its float over the whole difference."""
    state = np.ascontiguousarray(state, dtype=np.float64)
    n, dim = state.shape
    mean = state.mean(axis=0)
    flat = state.ravel()
    step = EINSUM_BUFFER
    # the mean repeated, so a chunk starting at any column reads its
    # means as one slice
    means = np.tile(mean, -(-(step + dim) // dim))
    seg = np.empty(step)
    total = np.float64(0.0)  # no member rows: NaN, as the whole einsum gives
    for lo in range(0, flat.size, step):
        chunk = seg[: min(step, flat.size - lo)]
        col = lo % dim
        np.subtract(flat[lo : lo + chunk.size], means[col : col + chunk.size], out=chunk)
        total += np.einsum("i,i->", chunk, chunk)
    return float(total / n)


#: annotation → (python cast, numpy column dtype); both record modules
#: import annotations from ``__future__``, so a field's type is a string
_CASTS = {"int": (int, np.int64), "float": (float, np.float64),
          "bool": (bool, np.bool_)}


class _RecordCodec:
    """The stored forms of a record dataclass, derived from its fields
    so that a field is declared once, in the dataclass: the JSON object
    of a cell artifact and the npz columns of a run checkpoint. Keys
    and columns come in field order; the ``int``/``float``/``bool``
    casts come from the annotations. A float field whose default is NaN
    may be absent, and is stored as JSON ``null``; a NaN anywhere else
    is passed through and fails the artifact's strict-JSON write.

    (``cls: Any`` below: the methods run on the dataclasses this is a
    base of, not on this class.)
    """

    @classmethod
    def _layout(cls: Any) -> list[tuple[Any, ...]]:
        """``(name, python cast, numpy dtype, nullable)`` per field."""
        return [
            (
                f.name,
                *_CASTS[f.type],
                isinstance(f.default, float) and math.isnan(f.default),
            )
            for f in fields(cls)
        ]

    def to_json(self) -> dict[str, Any]:
        out = {}
        for name, _, _, nullable in self._layout():
            value = getattr(self, name)
            out[name] = None if nullable and math.isnan(value) else value
        return out

    @classmethod
    def from_json(cls: Any, obj: dict[str, Any]) -> Any:
        return cls(**{
            name: float("nan") if nullable and obj[name] is None
            else cast(obj[name])
            for name, cast, _, nullable in cls._layout()
        })

    @classmethod
    def to_columns(cls: Any, records: list[Any]) -> dict[str, np.ndarray]:
        return {
            name: np.array([getattr(r, name) for r in records], dtype=dtype)
            for name, _, dtype, _ in cls._layout()
        }

    @classmethod
    def from_columns(cls: Any, columns: dict[str, np.ndarray]) -> list[Any]:
        layout = cls._layout()
        return [
            cls(**{name: cast(v) for (name, cast, _, _), v in zip(layout, row)})
            for row in zip(*(columns[name] for name, _, _, _ in layout))
        ]


@dataclass(frozen=True)
class RoundRecord(_RecordCodec):
    """Metrics snapshot after one evaluated round.

    ``train_loss`` is the mean local training loss over the nodes that
    trained in the evaluated round (NaN when nobody trained or the
    engine does not track it).
    """

    round: int
    mean_accuracy: float
    std_accuracy: float
    consensus: float
    cumulative_energy_wh: float
    trained_nodes: int
    is_training_round: bool
    train_loss: float = float("nan")


class _Accuracies:
    """What both run histories read off their ``records``."""

    records: list

    def final_accuracy(self) -> float:
        """Mean accuracy at the last evaluation."""
        if not self.records:
            raise ValueError("empty history")
        return self.records[-1].mean_accuracy

    def best_accuracy(self) -> float:
        """Best mean accuracy over the run's evaluations."""
        if not self.records:
            raise ValueError("empty history")
        return float(max(r.mean_accuracy for r in self.records))


@dataclass
class RunHistory(_Accuracies):
    """Accumulated metrics of one simulation run."""

    algorithm: str
    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    @property
    def rounds(self) -> np.ndarray:
        return np.array([r.round for r in self.records])

    @property
    def mean_accuracy(self) -> np.ndarray:
        return np.array([r.mean_accuracy for r in self.records])

    @property
    def std_accuracy(self) -> np.ndarray:
        return np.array([r.std_accuracy for r in self.records])

    @property
    def consensus(self) -> np.ndarray:
        return np.array([r.consensus for r in self.records])

    @property
    def energy_wh(self) -> np.ndarray:
        return np.array([r.cumulative_energy_wh for r in self.records])

    def accuracy_at_energy(self, budget_wh: float) -> float:
        """Accuracy at the last evaluation whose cumulative energy is
        within ``budget_wh`` — how Table 4 compares algorithms at equal
        energy."""
        eligible = [r for r in self.records if r.cumulative_energy_wh <= budget_wh]
        if not eligible:
            raise ValueError(f"no evaluation within budget {budget_wh} Wh")
        return eligible[-1].mean_accuracy
