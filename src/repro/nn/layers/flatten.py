"""Flatten layer bridging convolutional and dense stacks."""

from __future__ import annotations

from ..module import Module

__all__ = ["Flatten"]


class Flatten(Module):
    """Reshape ``(N, ...)`` to ``(N, prod(...))``."""
