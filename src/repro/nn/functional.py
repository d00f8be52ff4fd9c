"""Stateless numerical primitives used by the neural-network layers.

Everything here is pure NumPy, vectorized over the batch dimension, and
allocation-conscious per the hpc-parallel guidance: we favour views and
in-place updates over copies, and express convolution via im2col so the
inner loop is a single GEMM.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "one_hot",
    "relu",
    "relu_grad",
    "sigmoid",
    "tanh",
    "im2col_indices",
    "im2col",
    "col2im",
    "conv_output_size",
    "accuracy",
    "batched_linear_forward",
    "batched_linear_backward",
    "batched_cross_entropy",
    "batched_cross_entropy_into",
    "check_labels",
    "batched_im2col",
    "batched_col2im",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Subtracting the running maximum keeps ``exp`` in range for large
    logits; the subtraction broadcasts without copying ``x``.
    """
    shifted = x - np.max(x, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Encode integer ``labels`` of shape ``(N,)`` as ``(N, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectifier ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`relu` evaluated at the pre-activation ``x``."""
    return (x > 0.0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large ``|x|``."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(x)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def im2col_indices(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays mapping a padded image to its column matrix.

    Returns ``(k, i, j)`` suitable for fancy-indexing an ``(N, C, H+2p,
    W+2p)`` array into ``(N, C*kh*kw, out_h*out_w)``.
    """
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold ``x`` of shape ``(N, C, H, W)`` into ``(C*kh*kw, N*out_h*out_w)``.

    The column layout turns convolution into a single matrix product,
    which is the standard GEMM formulation used by BLAS-backed frameworks.
    """
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    k, i, j = im2col_indices(c, h, w, kh, kw, stride, padding)
    cols = x[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    return cols.transpose(1, 2, 0).reshape(c * kh * kw, -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image shape.

    Overlapping windows accumulate, which is exactly the gradient of the
    unfold operation.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    k, i, j = im2col_indices(c, h, w, kh, kw, stride, padding)
    cols_reshaped = cols.reshape(c * kh * kw, -1, n).transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


# -- batched (leading node-axis) kernels --------------------------------------
#
# The decentralized simulator trains many node models per round. These
# kernels carry an extra leading axis ``k`` (one slice per node) so all
# nodes' local steps collapse into stacked GEMMs instead of a Python
# loop. ``np.matmul`` on 3-D operands dispatches the same BLAS GEMM per
# slice as the 2-D call, so every slice is bit-identical to running the
# serial kernel on that node alone — the property the engines'
# oracle ≡ product bit-compatibility contract relies on.


def batched_linear_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Affine map per node: ``(k, B, in) @ (k, in, out) [+ (k, out)]``,
    written into ``out`` when given."""
    out = np.matmul(x, w, out=out)
    if b is not None:
        out += b[:, None, :]
    return out


def batched_linear_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_out: np.ndarray,
    grad_w: np.ndarray,
    grad_b: np.ndarray | None = None,
    grad_x: np.ndarray | None = None,
) -> None:
    """Gradients of :func:`batched_linear_forward`, written into the
    caller's arrays: ``grad_w`` ``(k, in, out)`` always, ``grad_b``
    ``(k, out)`` and ``grad_x`` ``(k, B, in)`` only when given (a layer
    without a bias has no ``grad_b``; the first parameterized layer of a
    model has no reader for ``grad_x``). The destinations may be strided
    along the node axis as long as each node's slice is C-contiguous —
    ``matmul`` then runs the same BLAS call per slice as it would into a
    fresh array.
    """
    np.matmul(x.transpose(0, 2, 1), grad_out, out=grad_w)
    if grad_b is not None:
        np.add.reduce(grad_out, axis=1, out=grad_b)
    if grad_x is not None:
        np.matmul(grad_out, w.transpose(0, 2, 1), out=grad_x)


#: ``(b, classes) -> (k_max, b)`` int64: entry ``[r, j]`` is the flat
#: position of logit ``[r, j, 0]`` in a C-ordered ``(k, b, classes)``
#: stack. One array per ``(b, classes)``, as tall as the tallest stack
#: seen; a shorter stack reads a prefix. Lane threads share it: a
#: replacement is a taller array of the same values, never a write.
_ROW_OFFSETS: dict[tuple[int, int], np.ndarray] = {}


def _row_offsets(k: int, b: int, classes: int) -> np.ndarray:
    offsets = _ROW_OFFSETS.get((b, classes))
    if offsets is None or offsets.shape[0] < k:
        offsets = (np.arange(k * b) * classes).reshape(k, b)
        offsets.flags.writeable = False  # shared by every caller
        _ROW_OFFSETS[b, classes] = offsets
    return offsets[:k]


def batched_cross_entropy_into(
    logits: np.ndarray,
    targets: np.ndarray,
    log_probs: np.ndarray | None = None,
    grad: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of :func:`batched_cross_entropy`, unchecked: the
    caller vouches for the shapes and for ``0 <= targets < K``. An
    out-of-range target is *not* caught here — the picks go through one
    flat index, where it silently lands on another sample's logits.

    ``log_probs`` and ``grad`` are ``(k, B, K)`` scratch arrays to
    write into (both are overwritten; ``grad`` is returned) or ``None``
    to allocate. Lend them only for C-contiguous ``logits``: a fresh
    result inherits a strided input's memory layout, the reductions
    below take their order from that layout, and a C-contiguous buffer
    would change it (the ``scratch_like`` rule of
    :mod:`repro.nn.batched`).

    Every line is the ufunc call its serial counterpart ends in, so
    each slice carries the serial loss's bits: ``np.max`` / ``np.sum``
    / ``.mean`` are ``maximum.reduce`` / ``add.reduce`` /
    ``add.reduce`` then ``true_divide`` by the item count; a ufunc
    writes the same values into ``out=`` as into a fresh array; and the
    flat index names exactly the elements ``[r, j, targets[r, j]]``,
    each once.
    """
    k, b, classes = logits.shape
    peak = np.maximum.reduce(logits, axis=-1, keepdims=True)
    log_probs = np.subtract(logits, peak, out=log_probs)
    grad = np.exp(log_probs, out=grad)  # softmax numerators, for now
    norm = np.add.reduce(grad, axis=-1, keepdims=True)
    np.log(norm, out=norm)
    np.subtract(log_probs, norm, out=log_probs)
    flat = _row_offsets(k, b, classes) + targets
    losses = np.add.reduce(log_probs.take(flat), axis=-1)
    losses /= b
    np.negative(losses, out=losses)
    np.exp(log_probs, out=grad)
    picked = grad.take(flat)
    picked -= 1.0
    grad.put(flat, picked)
    grad /= b
    return losses, grad


def check_labels(labels: np.ndarray, classes: int) -> None:
    """``IndexError`` unless every label lies in ``[0, classes)``."""
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise IndexError(
            f"labels must lie in [0, {classes}), "
            f"got [{labels.min()}, {labels.max()}]"
        )


def batched_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy per node slice.

    ``logits`` is ``(k, B, K)``, ``targets`` ``(k, B)`` ints in
    ``[0, K)`` (``IndexError`` otherwise). Returns ``(losses, grad)``
    where ``losses`` is ``(k,)`` (each node's mean loss over its batch)
    and ``grad`` is ``dL/dlogits`` already divided by ``B`` — the same
    contract as :class:`~repro.nn.losses.CrossEntropyLoss` applied slice
    by slice.
    """
    if logits.ndim != 3:
        raise ValueError(f"logits must be (k, B, K), got {logits.shape}")
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:2]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    check_labels(targets, logits.shape[2])
    return batched_cross_entropy_into(logits, targets)


def batched_im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold ``(k, B, C, H, W)`` into ``(k, C*kh*kw, B*oh*ow)`` columns
    (into ``out`` when given).

    Per-slice layout matches :func:`im2col` applied to one node's
    ``(B, C, H, W)`` batch, so a stacked ``(k, out_c, C*kh*kw)`` weight
    matmul reproduces the serial convolution node by node.
    """
    k_nodes, n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    k, i, j = im2col_indices(c, h, w, kh, kw, stride, padding)
    cols = x[:, :, k, i, j]  # (k, B, C*kh*kw, oh*ow)
    # match im2col's (ckk, ohow, B) -> (ckk, ohow*B) column ordering
    cols = cols.transpose(0, 2, 3, 1)
    if out is None:
        return cols.reshape(k_nodes, c * kh * kw, -1)
    np.copyto(out.reshape(cols.shape), cols)
    return out


def batched_col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`batched_im2col`: scatter-add back to images."""
    k_nodes, n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((k_nodes, n, c, hp, wp), dtype=cols.dtype)
    k, i, j = im2col_indices(c, h, w, kh, kw, stride, padding)
    cols_reshaped = cols.reshape(k_nodes, c * kh * kw, -1, n).transpose(0, 3, 1, 2)
    np.add.at(x_padded, (slice(None), slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, :, padding:-padding, padding:-padding]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` ``(N, K)`` against integer ``labels``."""
    if logits.shape[0] == 0:
        return 0.0
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == labels))
