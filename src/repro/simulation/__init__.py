"""``repro.simulation`` — the decentralized-learning simulators
(substitute for the paper's DecentralizePy cluster deployment):
synchronous round engine, asynchronous gossip engine, the columnar node data plane both train
from, message-level network, failure injection and fairness metrics."""

from .async_engine import (
    AsyncDPSGD,
    AsyncGossipEngine,
    AsyncHistory,
    AsyncPolicy,
    AsyncRecord,
    AsyncSkipTrain,
    AsyncSkipTrainConstrained,
)
from .builder import build_engine, build_nodes
from .checkpoint import load_run_checkpoint, save_run_checkpoint
from .engine import EngineConfig, SimulationEngine
from .failures import (
    CrashWindow,
    FailureModel,
    IndependentCrashes,
    NoFailures,
    failure_mixing_provider,
    masked_mixing,
)
from .fairness import (
    DeviceGroupReport,
    device_group_report,
    local_test_sets,
    participation_gini,
    per_node_accuracy,
)
from .metrics import (
    RoundRecord,
    RunHistory,
    consensus_distance,
    evaluate_model_vector,
    evaluate_state,
)
from .network import MessagePassingNetwork, TrafficStats
from .node_bank import NodeBank
from .rng import RngFactory, generator_state, restore_generator

__all__ = [
    "RngFactory",
    "NodeBank",
    "build_nodes",
    "build_engine",
    "EngineConfig",
    "SimulationEngine",
    "RoundRecord",
    "RunHistory",
    "consensus_distance",
    "evaluate_state",
    "evaluate_model_vector",
    "AsyncGossipEngine",
    "AsyncPolicy",
    "AsyncDPSGD",
    "AsyncSkipTrain",
    "AsyncSkipTrainConstrained",
    "AsyncRecord",
    "AsyncHistory",
    "MessagePassingNetwork",
    "TrafficStats",
    "FailureModel",
    "NoFailures",
    "IndependentCrashes",
    "CrashWindow",
    "masked_mixing",
    "failure_mixing_provider",
    "DeviceGroupReport",
    "device_group_report",
    "local_test_sets",
    "participation_gini",
    "per_node_accuracy",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "generator_state",
    "restore_generator",
]
