"""Spatial pooling layers."""

from __future__ import annotations

from ..module import Module

__all__ = ["MaxPool2d", "AvgPool2d"]


class _Pool2d(Module):
    """Square windows; stride defaults to kernel size. Any axes before
    the two spatial ones are batch axes."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size


class MaxPool2d(_Pool2d):
    """Max pooling."""


class AvgPool2d(_Pool2d):
    """Average pooling."""
