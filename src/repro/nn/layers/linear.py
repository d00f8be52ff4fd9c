"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from .. import init
from ..module import Module
from ..parameter import Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in, out)``.

    Keeping the weight in ``(in, out)`` layout means the forward product
    reads ``x`` row-contiguously — the batch dimension streams through
    cache (hpc-parallel guide: group memory accesses).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)  # repro: allow[rng-default-rng] -- seeded literal fallback, deterministic for standalone use
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None
