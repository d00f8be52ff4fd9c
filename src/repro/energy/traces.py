"""Energy-trace synthesis: the paper's §4.2 "Energy Traces" pipeline.

The methodology (verbatim from the paper):

1. take the per-sample MobileNet-v2 inference latency of each phone
   from the AI benchmark;
2. scale it by the ratio of model parameters to MobileNet-v2
   parameters, by the number of local steps ``E`` and by the batch size
   ``|ξ|`` to get the total inference time of one round;
3. apply FedScale's ×3 training-vs-inference multiplier to get the
   round's training time Δᵗ;
4. multiply by the Burnout training power ``P_hw`` (Eq. 2) to get the
   round's energy.

With the calibrated device constants this reproduces the endpoints the
paper publishes in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import DeviceProfile, PAPER_DEVICES

__all__ = [
    "MOBILENET_V2_PARAMS",
    "FEDSCALE_TRAIN_MULTIPLIER",
    "WorkloadSpec",
    "CIFAR10_WORKLOAD",
    "FEMNIST_WORKLOAD",
    "round_duration_s",
    "per_round_energy_wh",
    "per_round_energy_mwh",
    "communication_energy_wh",
    "EnergyTrace",
    "build_trace",
    "assign_devices_round_robin",
]

#: MobileNet-v2 parameter count (the AI-benchmark reference model).
MOBILENET_V2_PARAMS = 3_400_000

#: FedScale's empirical training:inference time ratio.
FEDSCALE_TRAIN_MULTIPLIER = 3.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Per-dataset training workload parameters (Table 1 of the paper)."""

    name: str
    model_params: int
    local_steps: int
    batch_size: int
    total_rounds: int
    #: bytes exchanged per neighbor per round = 4 bytes/param (float32),
    #: used by the communication-energy estimate.
    bytes_per_param: int = 4

    def __post_init__(self) -> None:
        if min(self.model_params, self.local_steps, self.batch_size,
               self.total_rounds) <= 0:
            raise ValueError("workload parameters must be positive")


CIFAR10_WORKLOAD = WorkloadSpec(
    name="CIFAR-10", model_params=89_834, local_steps=20, batch_size=32,
    total_rounds=1000,
)
FEMNIST_WORKLOAD = WorkloadSpec(
    name="FEMNIST", model_params=1_690_046, local_steps=7, batch_size=16,
    total_rounds=3000,
)


def round_duration_s(device: DeviceProfile, workload: WorkloadSpec) -> float:
    """Training duration Δᵗ of one round on ``device``, in seconds."""
    inference_s = device.mobilenet_inference_ms / 1000.0
    scale = workload.model_params / MOBILENET_V2_PARAMS
    total_inference = inference_s * scale * workload.local_steps * workload.batch_size
    return FEDSCALE_TRAIN_MULTIPLIER * total_inference


def per_round_energy_wh(device: DeviceProfile, workload: WorkloadSpec) -> float:
    """Eq. 2: training energy of one round, in watt-hours."""
    return device.training_power_w * round_duration_s(device, workload) / 3600.0


def per_round_energy_mwh(device: DeviceProfile, workload: WorkloadSpec) -> float:
    """Per-round training energy in milliwatt-hours (Table 2's unit)."""
    return 1000.0 * per_round_energy_wh(device, workload)


def communication_energy_wh(
    device: DeviceProfile,
    workload: WorkloadSpec,
    degree: int,
    link_mbps: float = 150.0,
) -> float:
    """Energy to share the model with ``degree`` neighbors once.

    Transmit time = degree × model bytes / link rate (receive-side radio
    cost is folded into the radio power constant); energy = radio power
    × time. Calibrated so that 256 CIFAR-10 nodes over 1000 rounds on a
    6-regular topology spend ≈7 Wh on communication+aggregation — the
    paper's §1 figure — roughly 200× below the 1.51 kWh training cost.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if link_mbps <= 0:
        raise ValueError("link_mbps must be positive")
    model_bits = workload.model_params * workload.bytes_per_param * 8
    seconds = degree * model_bits / (link_mbps * 1e6)
    return device.communication_power_w * seconds / 3600.0


@dataclass(frozen=True)
class EnergyTrace:
    """Per-node energy characteristics for one workload.

    Arrays are indexed by node id; ``budget_rounds[i]`` is τᵢ, the
    battery-limited number of training rounds (paper §2.3, Table 2).
    """

    devices: tuple[DeviceProfile, ...]
    train_energy_wh: np.ndarray
    comm_energy_wh: np.ndarray
    budget_rounds: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.devices)


def assign_devices_round_robin(
    n_nodes: int, devices: tuple[DeviceProfile, ...] = PAPER_DEVICES
) -> tuple[DeviceProfile, ...]:
    """Distribute nodes evenly across device types (paper §4.2: "we
    distribute the 256 nodes evenly among the four types")."""
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    return (tuple(devices) * -(-n_nodes // len(devices)))[:n_nodes]


def build_trace(
    n_nodes: int,
    workload: WorkloadSpec,
    battery_fraction: float,
    degree: int = 6,
    devices: tuple[DeviceProfile, ...] | None = None,
) -> EnergyTrace:
    """Construct the per-node energy trace used by the simulator.

    ``battery_fraction`` is the share of each phone's battery allotted
    to training (0.10 for CIFAR-10, 0.50 for FEMNIST in the paper);
    τᵢ = floor(fraction × battery / per-round energy).
    """
    if not 0.0 < battery_fraction <= 1.0:
        raise ValueError("battery_fraction must be in (0, 1]")
    assigned = (
        devices if devices is not None else assign_devices_round_robin(n_nodes)
    )
    if len(assigned) != n_nodes:
        raise ValueError("devices tuple must have one entry per node")
    # round robin: the four devices' values computed once, gathered by node
    kinds = PAPER_DEVICES if devices is None else devices
    kind = np.arange(n_nodes) % len(kinds)
    train = np.array([per_round_energy_wh(d, workload) for d in kinds])[kind]
    comm = np.array([communication_energy_wh(d, workload, degree) for d in kinds])[kind]
    battery = np.array([d.battery_wh for d in kinds])[kind]
    budgets = np.floor(battery_fraction * battery / train).astype(np.int64)
    return EnergyTrace(
        devices=assigned,
        train_energy_wh=train,
        comm_energy_wh=comm,
        budget_rounds=budgets,
    )
