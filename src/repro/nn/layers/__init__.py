"""The layers a model is built from: constructors, hyperparameters,
parameter shapes and init draws. The stacked mirror
(:mod:`repro.nn.batched`) computes them; only ``BatchNorm2d`` and
``Dropout``, which it refuses, compute themselves."""

from .activation import LeakyReLU, ReLU, Sigmoid, Tanh
from .batchnorm import BatchNorm2d
from .conv import Conv2d
from .dropout import Dropout
from .flatten import Flatten
from .linear import Linear
from .normalization import GroupNorm
from .pooling import AvgPool2d, MaxPool2d

__all__ = [
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "LeakyReLU",
    "Flatten",
    "Dropout",
    "GroupNorm",
    "BatchNorm2d",
]
