"""``repro.core`` — the paper's contribution: round schedules, energy
budgets, and the D-PSGD / SkipTrain algorithm family."""

from .base import Algorithm
from .budget import BudgetState, training_probabilities
from .compression import (
    Compressor,
    IdentityCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    TopKCompressor,
)
from .dpsgd import DPSGD, AllReduceDPSGD
from .greedy import Greedy
from .privacy import GaussianMechanism, noise_after_mixing
from .sampling import ClientSamplingDPSGD
from .schedule import DPSGD_SCHEDULE, RoundSchedule
from .skiptrain import SkipTrain, SkipTrainConstrained

__all__ = [
    "Algorithm",
    "RoundSchedule",
    "DPSGD_SCHEDULE",
    "BudgetState",
    "training_probabilities",
    "DPSGD",
    "AllReduceDPSGD",
    "SkipTrain",
    "SkipTrainConstrained",
    "Greedy",
    "Compressor",
    "IdentityCompressor",
    "TopKCompressor",
    "RandomKCompressor",
    "QuantizationCompressor",
    "ClientSamplingDPSGD",
    "GaussianMechanism",
    "noise_after_mixing",
]
