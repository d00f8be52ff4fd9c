"""2-D convolution."""

from __future__ import annotations

import numpy as np

from .. import init
from ..module import Module
from ..parameter import Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Cross-correlation layer over ``(N, C, H, W)`` inputs.

    The stacked mirror unfolds the input into a column matrix and the
    convolution becomes a single ``(out_channels, C*kh*kw) @
    (C*kh*kw, N*out_h*out_w)`` product per node, so nearly all time is
    spent in BLAS rather than Python loops.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ) -> None:
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid conv hyperparameters")
        rng = rng if rng is not None else np.random.default_rng(0)  # repro: allow[rng-default-rng] -- seeded literal fallback, deterministic for standalone use
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            ),
            name="weight",
        )
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None
