"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from ..functional import conv_output_size
from ..module import Module

__all__ = ["MaxPool2d", "AvgPool2d"]


def _window_view(x: np.ndarray, k: int, s: int) -> np.ndarray:
    """Return a strided ``(..., oh, ow, k, k)`` window view of ``x``
    (``(N, C, H, W)``, or any number of leading axes before ``H, W``).

    A zero-copy view (``as_strided``) keeps pooling allocation-free; we
    only materialize the reduction output. Leading axes keep their
    strides, so a stacked ``(nodes, N, C, H, W)`` input is pooled where
    it lies: the window mean's summation order follows the memory
    layout, and each node's slice is then reduced exactly as the same
    ``(N, C, H, W)`` array alone.
    """
    *lead, h, w = x.shape
    oh = conv_output_size(h, k, s, 0)
    ow = conv_output_size(w, k, s, 0)
    *lead_strides, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(*lead, oh, ow, k, k),
        strides=(*lead_strides, sh * s, sw * s, sh, sw),
        writeable=False,
    )


class MaxPool2d(Module):
    """Max pooling with square windows; stride defaults to kernel size.
    Any axes before the two spatial ones are batch axes."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        windows = _window_view(x, k, s)
        flat = windows.reshape(*windows.shape[:-2], k * k)
        idx = np.argmax(flat, axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        self._argmax = idx
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        k, s = self.kernel_size, self.stride
        grad_in = np.zeros(self._x_shape, dtype=grad_out.dtype)
        # Scatter each window's gradient to its argmax location. Windows may
        # overlap when stride < kernel, so accumulate with np.add.at.
        ky, kx = np.unravel_index(self._argmax, (k, k))
        *lead, oi, oj = np.indices(grad_out.shape, sparse=True)
        np.add.at(grad_in, (*lead, oi * s + ky, oj * s + kx), grad_out)
        return grad_in


class AvgPool2d(Module):
    """Average pooling with square windows; stride defaults to kernel size.
    Any axes before the two spatial ones are batch axes."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        windows = _window_view(x, self.kernel_size, self.stride)
        self._x_shape = x.shape
        return windows.mean(axis=(-2, -1))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        k, s = self.kernel_size, self.stride
        grad_in = np.zeros(self._x_shape, dtype=grad_out.dtype)
        share = grad_out / (k * k)
        *lead, oi, oj = np.indices(grad_out.shape, sparse=True)
        for dy in range(k):
            for dx in range(k):
                np.add.at(grad_in, (*lead, oi * s + dy, oj * s + dx), share)
        return grad_in
