"""Batched multi-node mirrors of the NN layers (the engines' local step).

The decentralized simulator trains ``k`` masked nodes per round. A loop
over nodes in Python would pay interpreter and BLAS-dispatch overhead
per node per layer per step. This module collapses that loop: a :class:`BatchedModel` carries every node's
parameters as stacked arrays with a leading node axis and runs one
forward/backward over ``(k, B, ...)`` activations, so each layer is a
single stacked GEMM/elementwise kernel regardless of ``k``.

Bit-compatibility contract
--------------------------
``np.matmul`` on 3-D stacks dispatches the same per-slice BLAS GEMM as
the 2-D call, and all other kernels are elementwise or reduce along the
same (contiguous, trailing) axes as their serial counterparts. Slice
``i`` of every batched kernel is therefore *bit-identical* to running
the serial layer on node ``i`` alone. The engines rely on this: both
train with plain SGD, so the stacked path reproduces the serial
trajectory exactly, not just approximately. Where a kernel writes —
a fresh array, a reused buffer, a strided view — is not part of that
arithmetic; everything below that saves memory traffic moves only
destinations, never an operation or a reduction order.

Parameter block and gradient plane
----------------------------------
Parameters are *views* into the caller's ``(k, dim)`` state-row block
(see :meth:`BatchedModel.bind`), laid out in the same order as
:func:`repro.nn.serialization.parameter_vector`, so training updates
land directly in the simulation state matrix with no scatter step. A
trainer binds, next to the block, one C-contiguous ``(k, dim)``
*gradient plane* with the identical layout: every parameterized layer
holds views into it and its backward writes there with
``np.matmul(..., out=view)`` / ``np.add.reduce(..., out=view)``. Each node's
slice of such a view is C-contiguous (only the node axis is strided, by
``dim``), which is what keeps ``matmul`` on the BLAS call it would make
into a fresh array. Because block and plane are both flat and aligned
element for element, the optimizer is two passes over contiguous memory
(:class:`~repro.nn.optim.BatchedSGD`) instead of a loop over parameter
tensors. Only :class:`BatchedTrainer` binds a plane: inference-only
binds (:class:`BatchedEvaluator`) cost no grad memory.

Workspace
---------
Each trainer *lane* (below) owns one :class:`Workspace` and lends it
to its model's layers: layer outputs, input gradients, ReLU masks, the
im2col columns, the per-step batch gathers and the gradient plane
itself are named flat buffers that grow to the largest request ever
made and are sliced to the shape of the current call. Callers vary
``k`` from call to call (the async engine trains 1–3 rows at a time,
ragged batch widths split a call into sub-blocks), so buffers are
keyed by *what they hold*, not by shape, and a smaller call is a
prefix of a larger call's memory — safe because every buffer is fully
overwritten before it is read. The workspace is scratch, not state:
nothing in it survives into a checkpoint or influences the next call,
and it is never shared between threads — two lanes never touch one
workspace. Layers bound without a workspace (the evaluator's) allocate
fresh arrays instead, and so does
an elementwise kernel whose input is strided — behind a convolution,
whose output is a transposed view — because there the result's memory
layout, which a fresh array inherits and a buffer would not, decides
which BLAS call the next ``matmul`` makes
(:meth:`BatchedLayer.scratch_like`).

Row tiles and lanes
-------------------
Rows do not interact inside a call, so a call's rows may train
anywhere and in any order. :class:`BatchedTrainer` cuts each
uniform-width row group into contiguous tiles and trains them through
:mod:`repro.lanes` on *lanes* — each a model, workspace and optimizer
of its own, lane 0 on the calling thread. A call may have more tiles
than lanes: the byte budget keeps a tile's workspace
(:func:`row_bytes` per row) under :data:`repro.lanes.ROW_BUDGET`, and
each lane then trains its tiles in waves, one after another in the
same workspace. Every row still gets its own GEMM slices, reductions
and SGD passes, so the bytes are the untiled call's; the lane count,
the work floor and the budget only decide where and when a row
trains.

Backward ends at the first parameterized layer
----------------------------------------------
The gradient with respect to a model's *input* has no reader, so
:meth:`BatchedModel.backward` stops at the first layer that has
parameters and tells it not to compute its input gradient — one GEMM
per step for an MLP, a GEMM plus the ``np.add.at`` col2im scatter for a
conv-first model — and never visits the parameter-free layers in front
of it.

Unsupported layers: ``Dropout`` (per-node RNG draws cannot be replayed
in stacked order) and ``BatchNorm2d`` (running statistics live in the
shared workspace model, a serial-path quirk the batched path refuses to
replicate). :func:`vectorize_module` raises :class:`UnsupportedLayerError`
for these, so an engine refuses such a model at construction.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterator, Sequence

import numpy as np

from .. import lanes
from . import functional as F
from .layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from .layers.normalization import GroupNorm
from .module import Module, Sequential
from .optim import BatchedSGD

__all__ = [
    "UnsupportedLayerError",
    "Workspace",
    "BatchedLayer",
    "BatchedLinear",
    "BatchedConv2d",
    "BatchedGroupNorm",
    "BatchedFlatten",
    "BatchedPool2d",
    "BatchedElementwise",
    "BatchedModel",
    "BatchedTrainer",
    "BatchedEvaluator",
    "row_bytes",
    "row_plan",
    "vectorize_module",
]


#: A per-row array shape, ``(B, ...)``: no node axis.
Shape = tuple[int, ...]


class UnsupportedLayerError(ValueError):
    """Raised when a model contains a layer with no batched mirror."""


class Workspace:
    """Named scratch arrays that outlive a call.

    :meth:`take` hands out a C-contiguous array of the requested shape
    carved from the front of a flat buffer kept per ``key``; the buffer
    is replaced only when a request outgrows it, so after the largest
    call has been seen no request allocates. The shaped view is kept
    too: asking again for the same ``(key, shape, dtype)`` is one dict
    hit and returns the identical object. A key's views die with the
    buffer they alias, so no outgrown buffer is kept alive. Contents
    are whatever the last user left: callers must write every element
    before reading.
    """

    def __init__(self) -> None:
        self._flat: dict[Hashable, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def take(
        self, key: Hashable, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        view = self._views.get((key, shape, dtype))
        if view is not None:
            return view
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[key] = np.empty(size, dtype=dtype)
            for stale in [at for at in self._views if at[0] == key]:
                del self._views[stale]
        view = self._views[key, shape, dtype] = flat[:size].reshape(shape)
        return view


def _plane_view(
    plane: np.ndarray | None, offset: int, shape: tuple[int, ...]
) -> np.ndarray | None:
    """``plane[:, offset:offset + prod(shape[1:])]`` viewed as ``shape``
    (``None`` stays ``None``: a bind without a gradient plane)."""
    if plane is None:
        return None
    return plane[:, offset : offset + math.prod(shape[1:])].reshape(shape)


class BatchedLayer:
    """Base class: parameter-free by default.

    Parameterized subclasses override :meth:`bind` to install stacked
    parameter (and gradient) views into the caller's ``(k, dim)`` planes
    and :meth:`param_grad_pairs` to expose them.
    """

    #: Whether the layer's output depends only on its input, not on any
    #: per-node parameter — such layers can run once on an un-stacked
    #: ``(B, ...)`` batch shared by all nodes (see :meth:`forward_shared`).
    node_independent = False

    #: Lent by a :class:`BatchedTrainer`; ``None`` means allocate.
    workspace: Workspace | None = None

    #: Whether :meth:`backward` must return the gradient with respect to
    #: the layer's input. :class:`BatchedModel` clears it on the first
    #: parameterized layer, whose input gradient nothing reads.
    input_grad = True

    def bind(
        self, block: np.ndarray, offset: int, grads: np.ndarray | None = None
    ) -> int:
        """Install parameter views from ``block[:, offset:...]`` and,
        when a gradient plane is given, gradient views from the same
        columns of ``grads``; return the offset past this layer's
        parameters."""
        return offset

    def param_grad_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """``(stacked_param, stacked_grad)`` views, in layout order —
        a read-only accessor over the bound planes (``stacked_grad`` is
        ``None`` under a bind without a gradient plane)."""
        return iter(())

    def scratch(
        self, name: str, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """An uninitialized ``shape`` array: this layer's ``name``
        buffer of the lent workspace, or a fresh one without it."""
        if self.workspace is None:
            return np.empty(shape, dtype=dtype)
        # keyed by id, not by the layer: a key holding the layer would
        # tie layer and workspace into a reference cycle, and a dropped
        # trainer's buffers would then wait for the cycle collector
        return self.workspace.take((id(self), name), shape, dtype)

    def scratch_like(
        self, name: str, like: np.ndarray, dtype=np.float64
    ) -> np.ndarray | None:
        """The ``out=`` for an elementwise kernel over ``like``: a
        scratch array when ``like`` is C-contiguous, else ``None`` so
        the kernel allocates. A ufunc's fresh result copies its input's
        memory layout, and a later ``matmul`` picks its BLAS call from
        that layout (a conv's output is a transposed view, and stays
        one through every elementwise layer behind it), so handing a
        C-contiguous buffer to a strided input would change bits
        downstream."""
        if not like.flags.c_contiguous:
            return None
        return self.scratch(name, like.shape, dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def plan(self, shape: Shape, contiguous: bool) -> tuple[int, Shape, bool]:
        """What a training forward over one row of input ``shape``
        (``(B, ...)``, no node axis) takes from the lent workspace:
        ``(bytes, output shape, whether the output is C-contiguous)``.
        The default is a shape- and layout-preserving map that borrows
        nothing. :func:`row_bytes` sums these."""
        return 0, shape, contiguous

    def plan_backward(
        self, shape: Shape, contiguous: bool, grad_contiguous: bool
    ) -> tuple[int, bool]:
        """The backward twin of :meth:`plan`, given the input it was
        planned with and whether ``grad_out`` is C-contiguous: ``(bytes,
        whether the input gradient is C-contiguous)``."""
        return 0, True

    def forward_shared(self, x: np.ndarray) -> np.ndarray:
        """Forward one un-stacked ``(B, ...)`` batch (no node axis).

        Only meaningful when :attr:`node_independent` is true: the
        evaluator runs the node-independent prefix of a model on the
        shared test batch once instead of per node, then broadcasts —
        a zero-copy view, because every stacked kernel downstream reads
        2-D slices that all alias the same contiguous buffer. Reshaping
        a broadcast ``(k, B, ...)`` stack instead (e.g. ``Flatten``)
        would materialize k redundant copies of the batch. Must not
        mutate ``x`` (it may view the dataset's storage).
        """
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward: no backward caches, and ``x`` — by
        the evaluator's construction always a freshly allocated stacked
        activation, never caller-owned data — may be overwritten in
        place. Defaults to :meth:`forward`; layers whose training
        forward pays for backward state override it.
        """
        return self.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        """Write this layer's parameter gradients into its plane views
        and return the gradient with respect to its input (``None``
        when :attr:`input_grad` is false)."""
        raise NotImplementedError


class BatchedLinear(BatchedLayer):
    """Stacked affine maps: ``(k, B, in) @ (k, in, out) + (k, out)``.

    The flat layout within each node's parameter row matches
    ``Linear.parameters()`` order (``bias`` before ``weight``, the
    sorted-attribute order used by serialization).
    """

    def __init__(self, template: Linear) -> None:
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.has_bias = template.bias is not None
        self.weight: np.ndarray | None = None
        self.bias: np.ndarray | None = None
        self.weight_grad: np.ndarray | None = None
        self.bias_grad: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def bind(
        self, block: np.ndarray, offset: int, grads: np.ndarray | None = None
    ) -> int:
        k = block.shape[0]
        fi, fo = self.in_features, self.out_features
        if self.has_bias:
            self.bias = _plane_view(block, offset, (k, fo))
            self.bias_grad = _plane_view(grads, offset, (k, fo))
            offset += fo
        self.weight = _plane_view(block, offset, (k, fi, fo))
        self.weight_grad = _plane_view(grads, offset, (k, fi, fo))
        return offset + fi * fo

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"BatchedLinear expects (k, B, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return F.batched_linear_forward(
            x,
            self.weight,
            self.bias,
            out=self.scratch("out", (*x.shape[:2], self.out_features)),
        )

    def plan(self, shape: Shape, contiguous: bool) -> tuple[int, Shape, bool]:
        return 8 * shape[0] * self.out_features, (shape[0], self.out_features), True

    def plan_backward(
        self, shape: Shape, contiguous: bool, grad_contiguous: bool
    ) -> tuple[int, bool]:
        return (8 * math.prod(shape) if self.input_grad else 0), True

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_x = self.scratch("grad_x", self._x.shape) if self.input_grad else None
        F.batched_linear_backward(
            self._x, self.weight, grad_out,
            grad_w=self.weight_grad, grad_b=self.bias_grad, grad_x=grad_x,
        )
        return grad_x

    def param_grad_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        if self.has_bias:
            yield self.bias, self.bias_grad
        yield self.weight, self.weight_grad


class BatchedConv2d(BatchedLayer):
    """Stacked convolutions over ``(k, B, C, H, W)`` via batched im2col +
    one ``(k, out_c, C*kh*kw) @ (k, C*kh*kw, B*oh*ow)`` stacked GEMM."""

    def __init__(self, template: Conv2d) -> None:
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        self.has_bias = template.bias is not None
        self.weight: np.ndarray | None = None  # (k, out_c, C, kh, kw)
        self.bias: np.ndarray | None = None  # (k, out_c)
        self.weight_grad: np.ndarray | None = None
        self.bias_grad: np.ndarray | None = None
        self._w_mat: np.ndarray | None = None  # weight as (k, out_c, C*kh*kw)
        self._w_mat_grad: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def bind(
        self, block: np.ndarray, offset: int, grads: np.ndarray | None = None
    ) -> int:
        k = block.shape[0]
        oc, ic, ks = self.out_channels, self.in_channels, self.kernel_size
        if self.has_bias:
            self.bias = _plane_view(block, offset, (k, oc))
            self.bias_grad = _plane_view(grads, offset, (k, oc))
            offset += oc
        self.weight = _plane_view(block, offset, (k, oc, ic, ks, ks))
        self.weight_grad = _plane_view(grads, offset, (k, oc, ic, ks, ks))
        self._w_mat = _plane_view(block, offset, (k, oc, ic * ks * ks))
        self._w_mat_grad = _plane_view(grads, offset, (k, oc, ic * ks * ks))
        return offset + oc * ic * ks * ks

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"BatchedConv2d expects (k, B, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        kn, n, c, h, w = x.shape
        ks, s, p = self.kernel_size, self.stride, self.padding
        out_h = F.conv_output_size(h, ks, s, p)
        out_w = F.conv_output_size(w, ks, s, p)

        cols = F.batched_im2col(
            x, ks, ks, s, p,
            out=self.scratch("cols", (kn, c * ks * ks, out_h * out_w * n)),
        )
        self._cols = cols
        self._x_shape = x.shape

        out = np.matmul(
            self._w_mat, cols,
            out=self.scratch("out", (kn, self.out_channels, out_h * out_w * n)),
        )
        if self.has_bias:
            out += self.bias[:, :, None]
        out = out.reshape(kn, self.out_channels, out_h, out_w, n)
        return out.transpose(0, 4, 1, 2, 3)

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        # the im2col columns, a row's largest array, are kept only for
        # a backward that inference never runs
        self._cols = None
        return out

    def _cols_out(self, shape: Shape) -> tuple[int, Shape]:
        n, c, h, w = shape
        ks, s, p = self.kernel_size, self.stride, self.padding
        out_h = F.conv_output_size(h, ks, s, p)
        out_w = F.conv_output_size(w, ks, s, p)
        return c * ks * ks * out_h * out_w * n, (n, self.out_channels, out_h, out_w)

    def plan(self, shape: Shape, contiguous: bool) -> tuple[int, Shape, bool]:
        cols, out = self._cols_out(shape)
        # the output is a transposed view of the GEMM's
        return 8 * (cols + math.prod(out)), out, False

    def plan_backward(
        self, shape: Shape, contiguous: bool, grad_contiguous: bool
    ) -> tuple[int, bool]:
        cols = self._cols_out(shape)[0] if self.input_grad else 0
        # col2im crops its padded image
        return 8 * cols, self.padding == 0

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        kn = self._x_shape[0]
        ks, s, p = self.kernel_size, self.stride, self.padding

        # (k, B, O, oh, ow) -> (k, O, B*oh*ow) matching the column layout
        grad_mat = grad_out.transpose(0, 2, 3, 4, 1).reshape(kn, self.out_channels, -1)

        np.matmul(grad_mat, self._cols.transpose(0, 2, 1), out=self._w_mat_grad)
        if self.has_bias:
            np.add.reduce(grad_mat, axis=2, out=self.bias_grad)
        if not self.input_grad:
            return None

        grad_cols = np.matmul(
            self._w_mat.transpose(0, 2, 1), grad_mat,
            out=self.scratch("grad_cols", self._cols.shape),
        )
        return F.batched_col2im(grad_cols, self._x_shape, ks, ks, s, p)

    def param_grad_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        if self.has_bias:
            yield self.bias, self.bias_grad
        yield self.weight, self.weight_grad


class BatchedGroupNorm(BatchedLayer):
    """Stacked GroupNorm: per-(node, sample, group) statistics with
    per-node ``gamma``/``beta`` (layout: ``beta`` before ``gamma``)."""

    def __init__(self, template: GroupNorm) -> None:
        self.num_groups = template.num_groups
        self.num_channels = template.num_channels
        self.eps = template.eps
        self.gamma: np.ndarray | None = None  # (k, C)
        self.beta: np.ndarray | None = None  # (k, C)
        self.gamma_grad: np.ndarray | None = None
        self.beta_grad: np.ndarray | None = None
        self._cache: tuple | None = None

    def bind(
        self, block: np.ndarray, offset: int, grads: np.ndarray | None = None
    ) -> int:
        k, c = block.shape[0], self.num_channels
        self.beta = _plane_view(block, offset, (k, c))
        self.beta_grad = _plane_view(grads, offset, (k, c))
        offset += c
        self.gamma = _plane_view(block, offset, (k, c))
        self.gamma_grad = _plane_view(grads, offset, (k, c))
        return offset + c

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.num_channels:
            raise ValueError(
                f"BatchedGroupNorm expects (k, B, {self.num_channels}, H, W), "
                f"got {x.shape}"
            )
        kn, n, c, h, w = x.shape
        g = self.num_groups
        xg = x.reshape(kn, n, g, c // g * h * w)
        mean = xg.mean(axis=-1, keepdims=True)
        var = xg.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (xg - mean) * inv_std
        xhat = xhat.reshape(kn, n, c, h, w)
        self._cache = (xhat, inv_std, x.shape)
        return (
            xhat * self.gamma[:, None, :, None, None]
            + self.beta[:, None, :, None, None]
        )

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xhat, inv_std, shape = self._cache
        kn, n, c, h, w = shape
        g = self.num_groups

        # assigned, not reduced with out=: the activations here may be
        # strided (see scratch_like), and only the allocate-then-reduce
        # form is known to keep the serial layer's reduction order then
        self.gamma_grad[...] = (grad_out * xhat).sum(axis=(1, 3, 4))
        self.beta_grad[...] = grad_out.sum(axis=(1, 3, 4))
        if not self.input_grad:
            return None

        dxhat = (grad_out * self.gamma[:, None, :, None, None]).reshape(
            kn, n, g, c // g * h * w
        )
        xhat_g = xhat.reshape(kn, n, g, c // g * h * w)
        m = dxhat.shape[-1]
        sum_dxhat = dxhat.sum(axis=-1, keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat_g).sum(axis=-1, keepdims=True)
        dx = (inv_std / m) * (m * dxhat - sum_dxhat - xhat_g * sum_dxhat_xhat)
        return dx.reshape(kn, n, c, h, w)

    def param_grad_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        yield self.beta, self.beta_grad
        yield self.gamma, self.gamma_grad


class BatchedFlatten(BatchedLayer):
    """Reshape ``(k, B, ...)`` to ``(k, B, prod(...))``."""

    node_independent = True

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def forward_shared(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def plan(self, shape: Shape, contiguous: bool) -> tuple[int, Shape, bool]:
        return 0, (shape[0], math.prod(shape[1:])), contiguous

    def plan_backward(
        self, shape: Shape, contiguous: bool, grad_contiguous: bool
    ) -> tuple[int, bool]:
        return 0, grad_contiguous

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class BatchedPool2d(BatchedLayer):
    """Pooling is parameter-free and per-sample, and the serial layers
    treat every axis before the spatial two as a batch axis, so a fresh
    serial pooling layer runs unchanged on the ``(k, B, C, H, W)``
    stack. The stack is pooled where it lies: folding the node axis into
    the batch axis would copy a strided input (a conv's transposed
    output) into C order, and the window mean sums in memory order."""

    node_independent = True

    def __init__(self, template: MaxPool2d | AvgPool2d) -> None:
        self.pool = type(template)(template.kernel_size, template.stride)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.pool.forward(x)

    forward_shared = forward

    def plan(self, shape: Shape, contiguous: bool) -> tuple[int, Shape, bool]:
        *lead, h, w = shape
        ks, s = self.pool.kernel_size, self.pool.stride
        out = (*lead, F.conv_output_size(h, ks, s, 0), F.conv_output_size(w, ks, s, 0))
        # max pooling gathers into a fresh array; a window mean keeps
        # its input's layout
        return 0, out, contiguous or isinstance(self.pool, MaxPool2d)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.pool.backward(grad_out)


def _relu(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` (into ``out`` when given), bit for
    bit on every input — NaN and ``-inf`` map to ``0.0``, zeros come out
    positive — as two fast passes: ``fmax`` ignores NaN and yields
    ``+0.0`` below zero but may keep the sign of an exact ``-0.0``,
    which adding ``+0.0`` clears (``-0.0 + 0.0 == +0.0``,
    ``v + 0.0 == v`` otherwise). ``np.where`` takes no ``out=`` and is
    several times slower."""
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


class BatchedElementwise(BatchedLayer):
    """Activations are shape-agnostic elementwise maps; a fresh instance
    of the serial layer runs unchanged on ``(k, B, ...)`` stacks.

    The rectifier — the one activation every preset uses — trains here
    instead, on reused buffers: the output is the serial layer's
    ``np.where(x > 0, x, 0.0)`` bit for bit (:func:`_relu`), the mask is
    kept for backward.

    Inference skips the training forward's backward bookkeeping: the
    rectifiers drop the cached mask and the ``np.where`` select in
    favour of one fused ``np.fmax`` pass. ``fmax`` — not ``maximum`` —
    because it shares ``np.where(x > 0, x, 0.0)``'s treatment of every
    input: NaN pre-activations (a diverged node) map to ``0.0`` instead
    of propagating, so the serial/batched equality contract survives
    divergence; the only representational difference left is the sign
    of exact zeros, which no comparison, argmax or downstream kernel
    can observe.
    """

    node_independent = True

    def __init__(self, layer: Module) -> None:
        self.layer = layer
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not isinstance(self.layer, ReLU):
            return self.layer.forward(x)
        self._mask = np.greater(x, 0.0, out=self.scratch_like("mask", x, np.bool_))
        return _relu(x, out=self.scratch_like("out", x))

    def plan(self, shape: Shape, contiguous: bool) -> tuple[int, Shape, bool]:
        if not isinstance(self.layer, ReLU) or not contiguous:
            return 0, shape, contiguous
        return 9 * math.prod(shape), shape, True  # mask and output

    def plan_backward(
        self, shape: Shape, contiguous: bool, grad_contiguous: bool
    ) -> tuple[int, bool]:
        if not isinstance(self.layer, ReLU):
            return 0, grad_contiguous
        lent = contiguous and grad_contiguous  # as backward decides
        return (8 * math.prod(shape) if lent else 0), lent

    def forward_shared(self, x: np.ndarray) -> np.ndarray:
        if isinstance(self.layer, ReLU):
            return np.fmax(x, 0.0)
        if isinstance(self.layer, LeakyReLU):
            return np.where(x > 0.0, x, self.layer.alpha * x)
        return self.layer.forward(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        if isinstance(self.layer, ReLU):
            return np.fmax(x, 0.0, out=x)
        if isinstance(self.layer, LeakyReLU):
            return np.where(x > 0.0, x, self.layer.alpha * x)
        return self.layer.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not isinstance(self.layer, ReLU):
            return self.layer.backward(grad_out)
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        out = None
        if self._mask.flags.c_contiguous:
            out = self.scratch_like("grad_x", grad_out)
        return np.multiply(grad_out, self._mask, out=out)


def _vectorize_layer(layer: Module) -> BatchedLayer:
    if isinstance(layer, Linear):
        return BatchedLinear(layer)
    if isinstance(layer, Conv2d):
        return BatchedConv2d(layer)
    if isinstance(layer, GroupNorm):
        return BatchedGroupNorm(layer)
    if isinstance(layer, Flatten):
        return BatchedFlatten()
    if isinstance(layer, (MaxPool2d, AvgPool2d)):
        return BatchedPool2d(layer)
    if isinstance(layer, ReLU):
        return BatchedElementwise(ReLU())
    if isinstance(layer, LeakyReLU):
        return BatchedElementwise(LeakyReLU(layer.alpha))
    if isinstance(layer, Sigmoid):
        return BatchedElementwise(Sigmoid())
    if isinstance(layer, Tanh):
        return BatchedElementwise(Tanh())
    raise UnsupportedLayerError(
        f"no batched mirror for layer type {type(layer).__name__}; "
        "the engines train every block of nodes stacked, so this model "
        "cannot run in a simulation"
    )


class BatchedModel:
    """A stack of batched layers bound to a ``(k, dim)`` parameter block.

    Built from a serial template by :func:`vectorize_module`. Call
    :meth:`bind` with the block of node parameter rows before
    forward/backward; parameter views alias the block, so optimizer
    updates mutate the rows in place. Training additionally binds a
    gradient plane (module docstring) that :meth:`backward` fills.
    """

    def __init__(self, layers: Sequence[BatchedLayer], dim: int) -> None:
        self.layers = list(layers)
        self.dim = dim
        self.block: np.ndarray | None = None
        self.grads: np.ndarray | None = None
        # backward runs from the last layer down to the first one that
        # has parameters; that layer's input gradient has no reader
        self._head = 0
        for at, layer in enumerate(self.layers):
            if not layer.node_independent:
                layer.input_grad = False
                self._head = at
                break
        #: Width of the logits when the model ends in a ``Linear`` head
        #: (elementwise layers may follow it), else ``None``.
        self.out_features: int | None = None
        for layer in reversed(self.layers):
            if isinstance(layer, BatchedLinear):
                self.out_features = layer.out_features
            if not isinstance(layer, BatchedElementwise):
                break

    def lend(self, workspace: Workspace) -> None:
        """Have every layer take its scratch arrays from ``workspace``."""
        for layer in self.layers:
            layer.workspace = workspace

    def bind(self, block: np.ndarray, grads: np.ndarray | None = None) -> None:
        if block.ndim != 2 or block.shape[1] != self.dim:
            raise ValueError(
                f"expected a (k, {self.dim}) parameter block, got {block.shape}"
            )
        if grads is not None and grads.shape != block.shape:
            raise ValueError(
                f"gradient plane {grads.shape} does not match the "
                f"parameter block {block.shape}"
            )
        offset = 0
        for layer in self.layers:
            offset = layer.bind(block, offset, grads)
        if offset != self.dim:
            raise RuntimeError(
                f"parameter layout mismatch: bound {offset} of {self.dim} entries"
            )
        self.block, self.grads = block, grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        """Fill the gradient plane from ``dL/dlogits``."""
        if self.grads is None:
            raise RuntimeError("backward needs a gradient plane: bind(block, grads)")
        for layer in reversed(self.layers[self._head :]):
            grad_out = layer.backward(grad_out)

    def param_grad_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        for layer in self.layers:
            yield from layer.param_grad_pairs()


def vectorize_module(template: Module) -> BatchedModel:
    """Build the batched mirror of ``template``.

    ``template`` must be a :class:`Sequential` (or a single supported
    layer); raises :class:`UnsupportedLayerError` for architectures with
    no batched path. The template is only read, never mutated.
    """
    layers = template.layers if isinstance(template, Sequential) else [template]
    return BatchedModel(
        [_vectorize_layer(layer) for layer in layers], template.num_parameters()
    )


def row_bytes(
    model: Module | BatchedModel, width: int, sample_shape: tuple[int, ...]
) -> int:
    """Bytes one row adds to the :class:`Workspace` of a trainer lane
    that trains it at batch ``width`` on samples of ``sample_shape``:
    its gradient-plane row, its share of the batch gather (float64, as
    datasets store samples), every layer's buffers (:meth:`BatchedLayer.plan`)
    and the loss's. Every buffer has a row axis, so a tile of ``r`` rows
    holds ``r`` times this; :func:`repro.lanes.tile_bounds` keeps a
    tile under the byte budget with it."""
    if not isinstance(model, BatchedModel):
        model = vectorize_module(model)
    shape, contiguous = (width, *sample_shape), True
    total = 8 * (model.dim + math.prod(shape))
    inputs = []
    for layer in model.layers:
        inputs.append((shape, contiguous))
        nbytes, shape, contiguous = layer.plan(shape, contiguous)
        total += nbytes
    if contiguous:
        total += 2 * 8 * math.prod(shape)  # log-probabilities, loss gradient
    grad_contiguous = True
    for layer, (shape, contiguous) in zip(
        reversed(model.layers[model._head :]), reversed(inputs[model._head :])
    ):
        nbytes, grad_contiguous = layer.plan_backward(shape, contiguous, grad_contiguous)
        total += nbytes
    return total


def row_plan(
    model: Module, rows: int, width: int, sample_shape: tuple[int, ...]
) -> tuple[int, int, int]:
    """``(rows per tile, waves, lane workspace bytes)``: how
    :meth:`BatchedTrainer.train_rows` runs a call of ``rows`` rows at
    batch ``width`` on this process's lanes — the largest tile, the
    waves its lanes take, and the workspace the largest tile leaves in a
    lane (:func:`row_bytes` per row)."""
    batched = vectorize_module(model)
    nbytes = row_bytes(batched, width, sample_shape)
    bounds = lanes.tile_bounds(rows, batched.dim * width, nbytes)
    tiles = len(bounds) - 1
    tile = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    return tile, -(-tiles // lanes.wave_width(tiles)), tile * nbytes


class BatchedEvaluator:
    """Evaluates every node's model on a shared test set in one stacked
    forward pass per batch.

    The serial evaluation path pays ``n_nodes × n_batches`` Python-level
    forward passes per eval round (plus one parameter-vector load per
    node) — the dominant cost of a faithful run. This evaluator binds a
    block of node parameter rows once per round and broadcasts each test
    batch across the node axis, so the whole round costs ``n_batches``
    stacked passes regardless of the node count.

    Bit-compatibility: every stacked kernel is slice-for-slice
    bit-identical to its serial counterpart (module docstring), so the
    logits — and therefore the argmax predictions and per-node correct
    counts — equal :func:`repro.simulation.metrics.evaluate_model_vector`
    run on each row separately. The returned accuracies are exactly
    equal, not merely close.

    Rows are evaluated in chunks cut by the row plan's byte budget
    (:func:`repro.lanes.tile_bounds` with :meth:`row_bytes` at the eval
    batch), each chunk on a lane of its own (a model bound to its rows),
    so a paper-size CNN never stacks more rows than the budget holds:
    im2col inflates a conv's activations by ``C·kh·kw``. Chunking
    changes no result.
    """

    def __init__(self, template: Module) -> None:
        self.model = vectorize_module(template)
        self._template = template
        self._models = {0: self.model}

    def row_bytes(self, width: int, sample_shape: tuple[int, ...]) -> int:
        """Bytes one row's stacked pass allocates at batch ``width``, at
        most: the output of every layer behind the shared prefix (a
        rectifier infers in place, a flatten is a reshape) and a conv's
        columns."""
        shape, contiguous, total = (width, *sample_shape), True, 0
        shared = True
        for layer in self.model.layers:
            shared = shared and layer.node_independent
            nbytes, shape, contiguous = layer.plan(shape, contiguous)
            if shared or isinstance(layer, BatchedFlatten):
                continue
            if isinstance(layer, (BatchedLinear, BatchedConv2d)):
                total += nbytes  # its workspace requests, allocated here
            elif not (
                isinstance(layer, BatchedElementwise) and isinstance(layer.layer, ReLU)
            ):
                total += 8 * math.prod(shape)
        return total

    def correct_counts(
        self, model: BatchedModel, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Per-row count of correct top-1 predictions on one batch.

        ``model`` must already be bound to the rows; ``x``/``y`` are one
        un-stacked test batch. The test batch is identical for every
        node, so the model's node-independent prefix (flatten/pool/
        activations before the first parameterized layer) runs once on
        the un-stacked batch and the result is broadcast across the node
        axis — a zero-copy view, since the stacked kernels consume it
        slice by slice.
        """
        split = 0
        for layer in model.layers:
            if not layer.node_independent:
                break
            x = layer.forward_shared(x)
            split += 1
        x = np.broadcast_to(x, (model.block.shape[0], *x.shape))
        for layer in model.layers[split:]:
            x = layer.infer(x)
        return (x.argmax(axis=2) == y).sum(axis=1)

    def evaluate(
        self,
        state: np.ndarray,
        dataset,
        node_ids: np.ndarray | None = None,
        batch_size: int = 256,
    ) -> np.ndarray:
        """Top-1 accuracy of every selected node row of ``state`` on
        ``dataset`` (an :class:`~repro.data.dataset.ArrayDataset`).

        Returns accuracies in ``node_ids`` order (all rows when ``None``),
        each bit-identical to the serial per-node evaluation.
        """
        state = np.asarray(state)
        if state.ndim != 2 or state.shape[1] != self.model.dim:
            raise ValueError(
                f"expected an (n, {self.model.dim}) state matrix, "
                f"got {state.shape}"
            )
        ids = None if node_ids is None else np.asarray(node_ids)
        rows = state.shape[0] if ids is None else ids.size
        n = len(dataset)
        correct = np.zeros(rows, dtype=np.int64)
        if rows == 0:
            return correct / n
        width = min(batch_size, n)

        def chunk(lane: int, lo: int, hi: int) -> None:
            model = self._models.get(lane)
            if model is None:
                model = self._models[lane] = vectorize_module(self._template)
            # all rows: bind the matrix itself (no copy when it already
            # is C-contiguous, as the engines' state is); a selection
            # is gathered a chunk at a time
            model.bind(np.ascontiguousarray(
                state[lo:hi] if ids is None else state[ids[lo:hi]]
            ))
            for start in range(0, n, batch_size):
                xb = dataset.x[start : start + batch_size]
                yb = dataset.y[start : start + batch_size]
                correct[lo:hi] += self.correct_counts(model, xb, yb)

        lanes.run_tiles(
            chunk,
            lanes.tile_bounds(rows, 0, self.row_bytes(width, dataset.x.shape[1:])),
        )
        return correct / n


def _contiguous_run(state: np.ndarray, ids: np.ndarray) -> np.ndarray | None:
    """``state[ids]`` as a writable *view* when ``ids`` is one ascending
    run ``lo, lo+1, ...`` and those rows are a C-contiguous float64
    block — what a slice of the engines' state matrix is — else
    ``None``."""
    lo = int(ids[0])
    if ids.size > 1 and not (np.diff(ids) == 1).all():
        return None
    rows = state[lo : lo + ids.size]
    if (
        rows.shape[0] == ids.size
        and rows.dtype == np.float64
        and rows.flags.c_contiguous
        and rows.flags.writeable
    ):
        return rows
    return None


class _Lane:
    """What one tile trains with: a model, the workspace its layers,
    batch gathers and gradient plane live in, and the optimizer over
    them. A lane is used by one thread at a time."""

    def __init__(self, template: Module, lr: float, weight_decay: float) -> None:
        self.model = vectorize_module(template)
        self.workspace = Workspace()
        self.model.lend(self.workspace)
        self.optimizer = BatchedSGD(self.model, lr=lr, weight_decay=weight_decay)

    def run_steps(
        self, block: np.ndarray, x: np.ndarray, labels: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Bind ``block`` and take its rows through ``idx.shape[1]``
        local steps in place, step ``s`` on samples ``x[idx[:, s]]``
        with targets ``labels[:, s]``; per-row mean losses."""
        rows, local_steps, width = idx.shape
        take = self.workspace.take
        self.model.bind(block, take("grads", block.shape))
        xb = take("x", (rows, width, *x.shape[1:]), x.dtype)
        total = np.zeros(rows)
        buffers = None
        for step in range(local_steps):
            # train_rows range-checked the indices; mode="clip" only
            # skips the defensive copy of ``out`` mode="raise" makes
            x.take(idx[:, step], axis=0, out=xb, mode="clip")
            logits = self.model.forward(xb)
            if buffers is None:  # same shape and layout every step
                buffers = (
                    (take("log_probs", logits.shape), take("loss_grad", logits.shape))
                    if logits.flags.c_contiguous
                    else ()
                )
            losses, grad = F.batched_cross_entropy_into(
                logits, labels[:, step], *buffers
            )
            total += losses
            self.model.backward(grad)
            self.optimizer.step()
        return total / local_steps


class BatchedTrainer:
    """Runs E stacked SGD steps on a block of node parameter rows.

    The trainer mirrors the serial per-node loop exactly: for each
    local step it stacks one mini-batch per node, does one batched
    forward/backward, and applies one in-place SGD update per node — the
    same arithmetic as the serial loop, reordered from
    ``for node: for step`` into ``for step: all nodes``, which is valid
    because nodes do not interact between aggregation rounds.

    A call's rows train as tiles on one or more *lanes* (module
    docstring, "Row tiles and lanes"). The first lane's ``model``,
    ``workspace`` and ``optimizer`` are the trainer's own attributes;
    the others are built from the same template, lr and weight decay the
    first time a call runs on that many lanes. Each lane owns exactly
    one :class:`Workspace`, the one its model's layers, the batch
    gathers and the gradient plane live in; it holds one tile at a
    time, so it grows to the largest tile, not to the call, and a second
    call of the same size allocates nothing proportional to ``k * dim``. A workspace is
    scratch: it is never checkpointed (it holds no run state between
    calls) and never shared — not between lanes, not between trainers,
    and not between threads, so a trainer is not safe to call from two
    threads at once.

    The update is plain SGD, the paper's local step: learning rate and
    weight decay, both exact, and no per-node optimizer state.
    """

    def __init__(
        self, template: Module, lr: float, weight_decay: float = 0.0
    ) -> None:
        own = _Lane(template, lr, weight_decay)
        if own.model.out_features is None:
            raise UnsupportedLayerError(
                "the stacked trainer checks labels against a Linear "
                "classification head, which this model does not end in, "
                "and the engines train every block of nodes stacked"
            )
        self.model, self.workspace, self.optimizer = (
            own.model, own.workspace, own.optimizer
        )
        self._lanes = {0: own}
        self._template, self._lr, self._weight_decay = template, lr, weight_decay
        #: :func:`row_bytes` by (batch width, sample shape)
        self._row_bytes: dict[tuple, int] = {}

    def train_rows(
        self,
        state: np.ndarray,
        ids: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        k: np.ndarray,
    ) -> np.ndarray:
        """Train rows ``ids`` of ``state``, each on its drawn
        mini-batches — the arbitrary-subset entry point both engines use
        (the sync engine trains the round's masked nodes; the async
        engine one disjoint event batch).

        The batches arrive as sample indices, the stacked form
        :meth:`repro.simulation.node_bank.NodeBank.draw` returns:
        ``state[ids[p]]`` takes local step ``s`` on samples
        ``idx[p, s, :k[p]]`` of the global ``x``/``y``, which are
        gathered here, one ``(rows, k, ...)`` stack per step. ``ids``
        may list distinct rows of ``state`` in any order. A row id
        outside ``[0, len(state))`` (``IndexError``; a negative id is
        not read from the end), a repeated row (``ValueError``), a
        sample index outside ``x``, padding columns included, or a label
        about to be used that lies outside the model's head (both
        ``IndexError``) is rejected before anything is touched. Rows
        whose batch sizes differ (smaller-than-batch datasets) are
        grouped into rectangular sub-blocks so every stack is uniform;
        grouping never changes any row's arithmetic, and neither does
        tiling a group across lanes. Rows that form one ascending run
        of a C-contiguous float64 ``state`` are trained where they lie;
        any other selection is gathered into a copy and scattered back.
        Either way rows not listed are never touched. Returns per-row
        mean losses in ``ids`` order.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0)
        ordered = np.sort(ids)
        if ordered[0] < 0 or ordered[-1] >= len(state):
            raise IndexError(
                f"row ids must lie in [0, {len(state)}), "
                f"got [{ordered[0]}, {ordered[-1]}]"
            )
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError(
                f"rows trained together must be distinct, got {ids.tolist()}"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
            raise IndexError(
                f"batch indices (padding included) must lie in "
                f"[0, {x.shape[0]}), got [{idx.min()}, {idx.max()}]"
            )
        if (k == k[0]).all():
            idx = idx[:, :, : k[0]]
            return self._train_uniform(state, ids, x, self._labels(y, idx), idx)
        # every group's labels are checked before any group trains
        groups = []
        for width in np.flatnonzero(np.bincount(k)):  # np.unique would load numpy.ma
            pos = np.flatnonzero(k == width)
            sub = idx[pos, :, :width]
            groups.append((pos, sub, self._labels(y, sub)))
        losses = np.empty(ids.size)
        for pos, sub, labels in groups:
            losses[pos] = self._train_uniform(state, ids[pos], x, labels, sub)
        return losses

    def _labels(self, y: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``y[idx]``, gathered once for all of a call's steps and
        range-checked against the model's head: the loss kernel picks
        through a flat index, which would turn an out-of-range label
        into a silent read of another sample's logits."""
        labels = y.take(idx)
        F.check_labels(labels, self.model.out_features)
        return labels

    def _train_uniform(
        self,
        state: np.ndarray,
        ids: np.ndarray,
        x: np.ndarray,
        labels: np.ndarray,
        idx: np.ndarray,
    ) -> np.ndarray:
        """:meth:`train_rows` for rows that share one batch width, cut
        as :func:`~repro.lanes.tile_bounds` plans them (work floor and
        byte budget, :func:`row_bytes`) and run by
        :func:`~repro.lanes.run_tiles`: each lane trains its tiles one
        after another in its own workspace. A contiguous run trains in
        place; any other selection is gathered and scattered back one
        tile at a time. Tiles own disjoint rows, so no two threads write
        one byte; per-row mean losses in ``ids`` order."""
        rows, _, width = idx.shape
        key = (width, x.shape[1:])
        nbytes = self._row_bytes.get(key)
        if nbytes is None:
            nbytes = self._row_bytes[key] = row_bytes(self.model, width, x.shape[1:])
        bounds = lanes.tile_bounds(rows, self.model.dim * width, nbytes)
        block = _contiguous_run(state, ids)

        def train(at: int, lo: int, hi: int) -> np.ndarray:
            lane = self._lanes.get(at)
            if lane is None:
                lane = self._lanes[at] = _Lane(
                    self._template, self._lr, self._weight_decay
                )
            if block is not None:
                return lane.run_steps(block[lo:hi], x, labels[lo:hi], idx[lo:hi])
            tile = ids[lo:hi]
            gathered = state[tile]  # fancy index: a copy
            losses = lane.run_steps(gathered, x, labels[lo:hi], idx[lo:hi])
            state[tile] = gathered
            return losses

        return np.concatenate(lanes.run_tiles(train, bounds))
