"""Group normalization.

The paper's CIFAR-10 model is the GN-LeNet of the DecentralizePy
framework; its 89 834-parameter count includes GroupNorm scale/shift
pairs, so a faithful reproduction needs a real GroupNorm with a correct
backward pass.
"""

from __future__ import annotations

import numpy as np

from ..module import Module
from ..parameter import Parameter

__all__ = ["GroupNorm"]


class GroupNorm(Module):
    """Normalize ``(N, C, H, W)`` activations within channel groups.

    Statistics are computed per ``(sample, group)`` over all spatial
    positions and the group's channels, then an affine transform with
    per-channel ``gamma``/``beta`` is applied (2C parameters).
    """

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5) -> None:
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels={num_channels} not divisible by num_groups={num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels), name="gamma")
        self.beta = Parameter(np.zeros(num_channels), name="beta")
