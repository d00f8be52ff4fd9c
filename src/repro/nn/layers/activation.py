"""Elementwise activation layers."""

from __future__ import annotations

from ..module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


class ReLU(Module):
    """Rectified linear unit."""


class LeakyReLU(Module):
    """Leaky rectifier with negative-side slope ``alpha``."""

    def __init__(self, alpha: float = 0.01) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha


class Sigmoid(Module):
    """Logistic activation."""


class Tanh(Module):
    """Hyperbolic-tangent activation."""
