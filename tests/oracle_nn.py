"""The serial neural-network library the stacked mirror is checked against.

The product runs one implementation of every layer it trains, the
stacked mirror :mod:`repro.nn.batched`, and slice ``i`` of each of its
kernels must hold the bits the serial per-sample layer gives node ``i``
alone. The serial forms are this oracle:

* :func:`serial` — a product module (a layer or a ``Sequential``) with
  its serial ``forward``/``backward``, on the module's own parameters
  and gradients (``BatchNorm2d`` and ``Dropout``, which have no stacked
  mirror, keep their own and come back as they are);
* :class:`CrossEntropyLoss`, :class:`MSELoss`, :class:`SGD` and the
  rate schedules :class:`ConstantLR`, :class:`StepLR`, :class:`CosineLR`;
* the helpers they call (:func:`softmax`, :func:`log_softmax`,
  :func:`one_hot`, :func:`sigmoid`, :func:`im2col`, :func:`col2im`, ...);
* :func:`evaluate_vector` — a flat parameter vector's top-1 accuracy
  through the serial forward;
* :class:`MessagePassingNetwork` — the literal share-and-aggregate the
  engine's sparse product ``X ← WX`` stands for, with per-edge traffic
  counters (:class:`TrafficStats`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.nn.functional import conv_output_size, im2col_indices
from repro.nn.serialization import set_parameter_vector


# -- numerical helpers ---------------------------------------------------------


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large ``|x|``."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Unfold ``x`` of shape ``(N, C, H, W)`` into ``(C*kh*kw, N*out_h*out_w)``."""
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k, i, j = im2col_indices(c, h, w, kh, kw, stride, padding)
    cols = x[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    return cols.transpose(1, 2, 0).reshape(c * kh * kw, -1)


def col2im(cols, x_shape, kh, kw, stride=1, padding=0) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image shape
    (overlapping windows accumulate — the gradient of the unfold)."""
    n, c, h, w = x_shape
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    k, i, j = im2col_indices(c, h, w, kh, kw, stride, padding)
    cols_reshaped = cols.reshape(c * kh * kw, -1, n).transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` ``(N, K)`` against integer ``labels``."""
    if logits.shape[0] == 0:
        return 0.0
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# -- serial layers ---------------------------------------------------------------


class _Serial:
    """A product layer run serially. Everything but the forward/backward
    and its cache (class attributes until the first forward) —
    parameters, ``zero_grad``, ``train``/``eval``, hyperparameters — is
    the layer's own."""

    def __init__(self, layer) -> None:
        self.layer = layer

    def __getattr__(self, name):
        return getattr(self.layer, name)


class Linear(_Serial):
    """``y = x @ W + b`` over ``(N, in)`` inputs."""

    _x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Linear expects (N, {self.in_features}), got {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expects {self.in_features} input features, got {x.shape[1]}"
            )
        self._x = x
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += self._x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data.T


class Conv2d(_Serial):
    """Cross-correlation over ``(N, C, H, W)``: one im2col unfold, then a
    single ``(out_channels, C*kh*kw) @ (C*kh*kw, N*oh*ow)`` product."""

    _cols = None
    _x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(f"Conv2d expects (N, {self.in_channels}, H, W), got {x.shape}")
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)
        self._cols = im2col(x, k, k, s, p)
        self._x_shape = x.shape
        out = self.weight.data.reshape(self.out_channels, -1) @ self._cols
        if self.bias is not None:
            out += self.bias.data[:, None]
        return out.reshape(self.out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise RuntimeError("backward called before forward")
        k, s, p = self.kernel_size, self.stride, self.padding
        # (N, O, oh, ow) -> (O, N*oh*ow) matching the forward column layout
        grad_mat = grad_out.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat @ self._cols.T).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_mat.sum(axis=1)
        grad_cols = self.weight.data.reshape(self.out_channels, -1).T @ grad_mat
        return col2im(grad_cols, self._x_shape, k, k, s, p)


def _window_view(x: np.ndarray, k: int, s: int) -> np.ndarray:
    """A strided ``(..., oh, ow, k, k)`` window view of ``x``; axes
    before the spatial two keep their strides."""
    *lead, h, w = x.shape
    *lead_strides, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(*lead, conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0), k, k),
        strides=(*lead_strides, sh * s, sw * s, sh, sw),
        writeable=False,
    )


class MaxPool2d(_Serial):
    """Each window's maximum; backward routes the gradient to its argmax."""

    _x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        windows = _window_view(x, k, self.stride)
        flat = windows.reshape(*windows.shape[:-2], k * k)
        self._argmax = np.argmax(flat, axis=-1)
        self._x_shape = x.shape
        return np.take_along_axis(flat, self._argmax[..., None], axis=-1)[..., 0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        k, s = self.kernel_size, self.stride
        grad_in = np.zeros(self._x_shape, dtype=grad_out.dtype)
        # windows overlap when stride < kernel, so accumulate with np.add.at
        ky, kx = np.unravel_index(self._argmax, (k, k))
        *lead, oi, oj = np.indices(grad_out.shape, sparse=True)
        np.add.at(grad_in, (*lead, oi * s + ky, oj * s + kx), grad_out)
        return grad_in


class AvgPool2d(_Serial):
    """Each window's mean; backward spreads the gradient evenly."""

    _x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return _window_view(x, self.kernel_size, self.stride).mean(axis=(-2, -1))

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


class GroupNorm(_Serial):
    """Normalization over channel groups, then the per-channel affine."""

    _cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(f"GroupNorm expects (N, {self.num_channels}, H, W), got {x.shape}")
        n, c, h, w = x.shape
        xg = x.reshape(n, self.num_groups, c // self.num_groups * h * w)
        mean = xg.mean(axis=2, keepdims=True)
        var = xg.var(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = ((xg - mean) * inv_std).reshape(n, c, h, w)
        self._cache = (xhat, inv_std, x.shape)
        return xhat * self.gamma.data[None, :, None, None] + self.beta.data[None, :, None, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xhat, inv_std, (n, c, h, w) = self._cache
        g = self.num_groups
        self.gamma.grad += (grad_out * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        dxhat = (grad_out * self.gamma.data[None, :, None, None]).reshape(n, g, c // g * h * w)
        xhat_g = xhat.reshape(n, g, c // g * h * w)
        m = dxhat.shape[2]
        # dx = inv_std/m * (m*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat)), per group
        sum_dxhat = dxhat.sum(axis=2, keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat_g).sum(axis=2, keepdims=True)
        dx = (inv_std / m) * (m * dxhat - sum_dxhat - xhat_g * sum_dxhat_xhat)
        return dx.reshape(n, c, h, w)


class Flatten(_Serial):
    """``(N, ...)`` to ``(N, prod(...))`` and back in backward."""

    _shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class ReLU(_Serial):
    _mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class LeakyReLU(_Serial):
    _mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return np.where(self._mask, x, self.alpha * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * np.where(self._mask, 1.0, self.alpha)


class Sigmoid(_Serial):
    _out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = sigmoid(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Tanh(_Serial):
    _out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Sequential(_Serial):
    """The layers' serial forms: forward left to right, backward right
    to left."""

    def __init__(self, module) -> None:
        super().__init__(module)
        self.layers = [serial(layer) for layer in module.layers]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


_TWINS = {
    nn.Linear: Linear,
    nn.Conv2d: Conv2d,
    nn.MaxPool2d: MaxPool2d,
    nn.AvgPool2d: AvgPool2d,
    nn.GroupNorm: GroupNorm,
    nn.Flatten: Flatten,
    nn.ReLU: ReLU,
    nn.LeakyReLU: LeakyReLU,
    nn.Sigmoid: Sigmoid,
    nn.Tanh: Tanh,
    nn.Sequential: Sequential,
}


def serial(module):
    """``module`` with its serial ``forward``/``backward``: a layer of the
    stacked mirror (or a ``Sequential`` of them) gets its twin above, a
    layer that keeps its own (``BatchNorm2d``, ``Dropout``) is returned
    as it is."""
    twin = _TWINS.get(type(module))
    return module if twin is None else twin(module)


def evaluate_vector(model, vec: np.ndarray, dataset, batch_size: int = 256) -> float:
    """Top-1 accuracy of the flat parameter vector ``vec`` on ``dataset``
    through the serial forward, ``model`` as the workspace; correct
    predictions are counted, as the stacked evaluator counts them."""
    set_parameter_vector(model, vec)
    net = serial(model.eval())
    correct = 0
    for start in range(0, len(dataset), batch_size):
        logits = net.forward(dataset.x[start : start + batch_size])
        correct += int((np.argmax(logits, axis=1) == dataset.y[start : start + batch_size]).sum())
    model.train()
    return correct / len(dataset)


# -- losses ----------------------------------------------------------------------


class CrossEntropyLoss:
    """Softmax cross-entropy over integer labels; the gradient is
    ``softmax(logits) - onehot(targets)``, divided by the batch size."""

    _probs = _targets = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, K), got {logits.shape}")
        targets = np.asarray(targets)
        if targets.shape != (logits.shape[0],):
            raise ValueError(
                f"targets shape {targets.shape} incompatible with logits {logits.shape}"
            )
        log_probs = log_softmax(logits, axis=1)
        self._probs = np.exp(log_probs)
        self._targets = targets
        return float(-log_probs[np.arange(logits.shape[0]), targets].mean())

    def backward(self) -> np.ndarray:
        if self._probs is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._targets] -= 1.0
        grad /= n
        return grad

    __call__ = forward


class MSELoss:
    """Mean squared error over arbitrary-shape predictions."""

    _diff = None

    def forward(self, preds: np.ndarray, targets: np.ndarray) -> float:
        if preds.shape != targets.shape:
            raise ValueError(f"shape mismatch {preds.shape} vs {targets.shape}")
        self._diff = preds - targets
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size

    __call__ = forward


# -- optimizer and schedules -------------------------------------------------------


class SGD:
    """Stochastic gradient descent with optional momentum and weight
    decay, in place on the parameter buffers. Without momentum, one
    step is ``p -= lr * g`` per element — what ``BatchedSGD`` does row
    by row."""

    def __init__(self, params, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = None

    def step(self) -> None:
        if self.momentum > 0.0 and self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.params]
        for i, p in enumerate(self.params):
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            if self.momentum > 0.0:
                vel = self._velocity[i]
                vel *= self.momentum
                vel += grad
                p.data -= self.lr * vel
            else:
                p.data -= self.lr * grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class ConstantLR:
    def __init__(self, lr: float) -> None:
        self.lr = lr

    def __call__(self, step: int) -> float:
        return self.lr


class StepLR:
    """The rate times ``gamma`` every ``step_size`` steps."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.lr, self.step_size, self.gamma = lr, step_size, gamma

    def __call__(self, step: int) -> float:
        return self.lr * self.gamma ** (step // self.step_size)


class CosineLR:
    """Cosine annealing from ``lr`` down to ``min_lr`` over ``total`` steps."""

    def __init__(self, lr: float, total: int, min_lr: float = 0.0) -> None:
        if total <= 0:
            raise ValueError("total must be positive")
        self.lr, self.total, self.min_lr = lr, total, min_lr

    def __call__(self, step: int) -> float:
        frac = min(step, self.total) / self.total
        return self.min_lr + 0.5 * (self.lr - self.min_lr) * (1 + np.cos(np.pi * frac))


# -- message-level gossip ------------------------------------------------------------


@dataclass
class TrafficStats:
    """Cumulative traffic counters of one :class:`MessagePassingNetwork`."""

    messages_sent: int = 0
    bytes_sent: int = 0
    per_node_bytes: np.ndarray | None = None
    rounds: int = 0

    def record(self, n_messages: int, n_bytes: int, per_node: np.ndarray) -> None:
        self.messages_sent += n_messages
        self.bytes_sent += n_bytes
        if self.per_node_bytes is None:
            self.per_node_bytes = per_node.astype(np.int64)
        else:
            self.per_node_bytes += per_node
        self.rounds += 1


class MessagePassingNetwork:
    """Literal share-and-aggregate over an undirected topology: each
    :meth:`exchange` sends every node's parameter vector to each
    neighbor (one message per directed edge) and takes the W-weighted
    average of its own and the received models — ``W @ X`` with explicit
    message buffers and traffic accounting."""

    def __init__(self, neighbor_lists, mixing, bytes_per_value: int = 8) -> None:
        n = len(neighbor_lists)
        if mixing.shape != (n, n):
            raise ValueError("mixing matrix does not match neighbor lists")
        if bytes_per_value <= 0:
            raise ValueError("bytes_per_value must be positive")
        for i, nbrs in enumerate(neighbor_lists):
            row = set(mixing.indices[mixing.indptr[i]:mixing.indptr[i + 1]])
            row.discard(i)
            if row != set(int(j) for j in nbrs):
                raise ValueError(
                    f"mixing matrix support at node {i} does not match its neighbor list"
                )
        self.neighbors = neighbor_lists
        self.mixing = mixing
        self.bytes_per_value = bytes_per_value
        self.stats = TrafficStats()

    @property
    def n_nodes(self) -> int:
        return len(self.neighbors)

    def exchange(self, state: np.ndarray) -> np.ndarray:
        """One share + aggregate step; returns a fresh state (a network
        cannot write into a sender's memory)."""
        n, dim = state.shape
        if n != self.n_nodes:
            raise ValueError("state row count does not match network size")
        inboxes = [[] for _ in range(n)]
        messages = 0
        per_node_bytes = np.zeros(n, dtype=np.int64)
        for i in range(n):
            for j in self.neighbors[i]:
                inboxes[int(j)].append((i, state[i]))
                messages += 1
                per_node_bytes[i] += dim * self.bytes_per_value
        out = np.empty_like(state)
        w = self.mixing
        for i in range(n):
            lo, hi = w.indptr[i], w.indptr[i + 1]
            row = dict(zip(w.indices[lo:hi].tolist(), w.data[lo:hi]))
            acc = row.get(i, 0.0) * state[i]
            for sender, payload in inboxes[i]:
                acc = acc + row[sender] * payload
            out[i] = acc
        self.stats.record(messages, int(per_node_bytes.sum()), per_node_bytes)
        return out

    def expected_bytes_per_round(self, dim: int) -> int:
        """One message of ``dim × bytes_per_value`` per directed edge."""
        return sum(len(nbrs) for nbrs in self.neighbors) * dim * self.bytes_per_value
