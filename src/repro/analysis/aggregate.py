"""Cross-seed aggregation statistics for sweep artifacts.

The sweep orchestrator writes one raw JSON artifact per (preset,
algorithm, degree, seed) cell; this module provides the statistics the
raw→CSV step applies to each group of seeds: mean ± population std
(what :class:`repro.experiments.artifacts.SummaryRow` carries) and
coverage checks that make aggregation honest on *partial* sweeps — a
shard farm mid-run has ragged seed sets, and the CSV must say so
rather than silently compare a 3-seed mean against a 1-seed one.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, TypeVar

import numpy as np

__all__ = ["mean_std", "group_by", "missing_seeds"]

T = TypeVar("T")
K = TypeVar("K")


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation (ddof=0, the paper's
    mean±std convention for small seed counts)."""
    if len(values) == 0:
        raise ValueError("need at least one value")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def group_by(items: Iterable[T], key) -> dict:
    """Group ``items`` into an insertion-ordered ``{key(item): [items]}``
    dict (deterministic for deterministic input order)."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def missing_seeds(seeds_by_group: Mapping[K, Sequence[int]]) -> dict[K, list[int]]:
    """Per-group seeds absent relative to the union of all groups'
    seeds. Empty dict means every group covers the same seed set — the
    aggregated means are directly comparable."""
    union: set[int] = set()
    for seeds in seeds_by_group.values():
        union.update(seeds)
    gaps = {
        key: sorted(union - set(seeds))
        for key, seeds in seeds_by_group.items()
    }
    return {key: miss for key, miss in gaps.items() if miss}
