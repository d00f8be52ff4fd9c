"""Fairness diagnostics for energy-aware participation (§5.1).

The paper warns that energy-aware skipping biases the consensus model
toward high-energy-capacity devices: nodes that train more pull the
model toward their local distributions. These metrics quantify that
bias so the effect can be measured rather than speculated about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.batched import BatchedEvaluator, UnsupportedLayerError
from ..nn.module import Module
from .metrics import evaluate_model_vector

__all__ = [
    "per_node_accuracy",
    "local_test_sets",
    "participation_gini",
    "DeviceGroupReport",
    "device_group_report",
]


def per_node_accuracy(
    model: Module, state: np.ndarray, test_set: ArrayDataset
) -> np.ndarray:
    """Accuracy of every node's model on the common test set.

    Runs the stacked cross-node evaluator when the model has a batched
    mirror (bit-identical to the loop, one forward pass per test batch
    for all nodes) and falls back to the serial per-node loop otherwise.
    """
    try:
        evaluator = BatchedEvaluator(model)
    except UnsupportedLayerError:
        return np.array(
            [evaluate_model_vector(model, state[i], test_set)
             for i in range(state.shape[0])]
        )
    return evaluator.evaluate(state, test_set)


def local_test_sets(
    test_set: ArrayDataset, class_matrix: np.ndarray,
    rng: np.random.Generator, samples_per_node: int = 200,
) -> list[ArrayDataset]:
    """Per-node test sets matching each node's *training* label
    distribution (from the node × class count matrix).

    Bias toward a node shows up as high accuracy on that node's local
    test distribution; a fair consensus model scores evenly.
    """
    n_nodes, n_classes = class_matrix.shape
    if n_classes != test_set.num_classes:
        raise ValueError("class matrix does not match test set classes")
    by_class = [np.nonzero(test_set.y == c)[0] for c in range(n_classes)]
    out = []
    for i in range(n_nodes):
        weights = class_matrix[i].astype(np.float64)
        if weights.sum() == 0:
            raise ValueError(f"node {i} has no training samples")
        probs = weights / weights.sum()
        counts = rng.multinomial(samples_per_node, probs)
        picks = []
        for c, k in enumerate(counts):
            if k == 0:
                continue
            if len(by_class[c]) == 0:
                continue  # test set lacks this class entirely
            picks.append(rng.choice(by_class[c], size=k, replace=True))
        idx = np.concatenate(picks) if picks else np.array([], dtype=np.int64)
        if idx.size == 0:
            raise ValueError(f"no test samples available for node {i}")
        out.append(test_set.subset(idx))
    return out


def participation_gini(train_rounds: np.ndarray) -> float:
    """Gini coefficient of per-node training-round counts.

    0 = perfectly equal participation (D-PSGD, SkipTrain), larger =
    participation concentrated on few (high-budget) nodes.
    """
    x = np.sort(np.asarray(train_rounds, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("empty participation vector")
    total = x.sum()
    if total == 0:
        return 0.0
    # standard formula: G = (2 Σ i·x_i)/(n Σ x) - (n+1)/n with 1-based i
    i = np.arange(1, n + 1)
    return float((2.0 * (i * x).sum()) / (n * total) - (n + 1) / n)


@dataclass(frozen=True)
class DeviceGroupReport:
    """Per-device-type aggregates of participation and local accuracy."""

    device_names: tuple[str, ...]
    train_rounds: tuple[float, ...]
    local_accuracy: tuple[float, ...]

    def accuracy_spread(self) -> float:
        """Max minus min per-device local accuracy — the §5.1 performance
        gap between high- and low-energy devices."""
        return max(self.local_accuracy) - min(self.local_accuracy)


def device_group_report(
    model: Module,
    state: np.ndarray,
    devices: tuple,
    train_rounds: np.ndarray,
    local_tests: list[ArrayDataset],
) -> DeviceGroupReport:
    """Group nodes by device type and report mean participation and mean
    accuracy of the *consensus* model on each group's local test data."""
    n = state.shape[0]
    if len(devices) != n or train_rounds.shape != (n,) or len(local_tests) != n:
        raise ValueError("per-node inputs must all have length n")
    consensus = state.mean(axis=0)
    names = sorted(set(d.name for d in devices))
    rounds_out, acc_out = [], []
    for name in names:
        ids = [i for i in range(n) if devices[i].name == name]
        rounds_out.append(float(np.mean([train_rounds[i] for i in ids])))
        accs = [
            evaluate_model_vector(model, consensus, local_tests[i])
            for i in ids
        ]
        acc_out.append(float(np.mean(accs)))
    return DeviceGroupReport(
        device_names=tuple(names),
        train_rounds=tuple(rounds_out),
        local_accuracy=tuple(acc_out),
    )
