"""``repro.nn`` — a from-scratch vectorized NumPy neural-network engine.

This package substitutes for PyTorch (unavailable offline). It holds
what the simulator runs: the layer and model constructors (parameter
shapes and init draws), parameter discovery and flat-vector
serialization, and the stacked mirror (:mod:`repro.nn.batched`) that
trains and evaluates a block of nodes at once with its kernels
(:mod:`repro.nn.functional`) and :class:`BatchedSGD`. The serial
per-sample layers, losses, SGD and schedules that mirror is checked
against bit for bit are the test suite's oracle, ``tests/oracle_nn.py``.
"""

from . import functional
from .batched import (
    BatchedEvaluator,
    BatchedModel,
    BatchedTrainer,
    UnsupportedLayerError,
    vectorize_module,
)
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GroupNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from .models import (
    PAPER_CIFAR10_PARAMS,
    PAPER_FEMNIST_PARAMS,
    cnn_femnist,
    gn_lenet_cifar10,
    logistic_regression,
    small_cnn,
    small_mlp,
)
from .io import load_model, save_model
from .module import Module, Sequential
from .optim import BatchedSGD
from .optim_adaptive import Adam, AdamW
from .parameter import Parameter
from .serialization import (
    gradient_vector,
    parameter_slices,
    parameter_vector,
    set_parameter_vector,
    vector_size,
)

__all__ = [
    "functional",
    "Module",
    "Sequential",
    "Parameter",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Dropout",
    "GroupNorm",
    "BatchNorm2d",
    "BatchedSGD",
    "BatchedEvaluator",
    "BatchedModel",
    "BatchedTrainer",
    "UnsupportedLayerError",
    "vectorize_module",
    "Adam",
    "AdamW",
    "save_model",
    "load_model",
    "parameter_vector",
    "set_parameter_vector",
    "gradient_vector",
    "parameter_slices",
    "vector_size",
    "gn_lenet_cifar10",
    "cnn_femnist",
    "small_cnn",
    "small_mlp",
    "logistic_regression",
    "PAPER_CIFAR10_PARAMS",
    "PAPER_FEMNIST_PARAMS",
]
