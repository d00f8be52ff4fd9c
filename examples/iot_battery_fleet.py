#!/usr/bin/env python
"""Energy-constrained IoT fleet: SkipTrain-constrained vs Greedy vs D-PSGD.

Models the paper's motivating scenario (§1, §3.2): a fleet of
battery-powered smartphones that can each afford only τᵢ training
rounds before depleting their training energy allotment. Devices are
the paper's four phones (Table 2), assigned round-robin; budgets come
from the battery-fraction rule of §4.2.

The script prints each node's device, budget, and how each algorithm
spends it — then the accuracy all three reach at the same total energy.

Run:  python examples/iot_battery_fleet.py
"""

import numpy as np

from repro.experiments import build_run, execute_run, prepare
from repro.experiments.presets import ExperimentPreset
from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD
from repro.nn import small_mlp

N_NODES = 16
SEED = 7


def make_preset() -> ExperimentPreset:
    return ExperimentPreset(
        name="iot-fleet",
        n_nodes=N_NODES,
        degrees=(3,),
        spec=SyntheticSpec(
            num_classes=10, channels=1, image_size=8,
            noise_std=2.5, jitter_std=0.6, prototype_resolution=4,
        ),
        num_train=2400,
        num_test=600,
        partition="shard",
        model_factory=lambda rng: small_mlp(64, 10, hidden=16, rng=rng),
        learning_rate=0.4,
        batch_size=8,
        local_steps=8,
        total_rounds=80,
        eval_every=8,
        eval_node_sample=None,
        workload=CIFAR10_WORKLOAD,
        battery_fraction=0.0074,  # τ ≈ half of T_train, as in the paper
        tuned_schedules={3: (4, 4)},
    )


def main() -> None:
    preset = make_preset()
    prepared = prepare(preset, degree=3, seed=SEED)

    print("fleet composition (budgets per §4.2's battery rule):")
    for i in (0, 1, 2, 3):
        dev = prepared.trace.devices[i]
        tau = prepared.trace.budget_rounds[i]
        per_round = prepared.trace.train_energy_wh[i] * 1000
        print(f"  node {i}: {dev.name:26s} {per_round:5.2f} mWh/round, "
              f"budget τ = {tau} rounds")
    print(f"  ... ({N_NODES} nodes total, devices repeat round-robin)\n")

    results = {}
    for name in ["skiptrain-constrained", "greedy", "d-psgd"]:
        eval_every = 2 if name == "d-psgd" else None
        results[name] = execute_run(
            *build_run(prepared, name, eval_every=eval_every), prepared.trace
        )

    constrained = results["skiptrain-constrained"]
    greedy = results["greedy"]
    dpsgd = results["d-psgd"]

    print("training rounds actually executed per node:")
    print(f"  budgets τ:            {prepared.trace.budget_rounds.tolist()}")
    print(f"  SkipTrain-constrained: {constrained.meter.train_rounds.tolist()}")
    print(f"  Greedy:                {greedy.meter.train_rounds.tolist()}")
    print(f"  D-PSGD (unbounded):    {dpsgd.meter.train_rounds.tolist()}\n")

    budget = max(constrained.meter.total_wh, greedy.meter.total_wh)
    print(f"accuracy at the shared energy budget ({budget:.2f} Wh):")
    for name, res in [("SkipTrain-constrained", constrained),
                      ("Greedy", greedy), ("D-PSGD", dpsgd)]:
        acc = res.history.accuracy_at_energy(budget)
        print(f"  {name:22s} {acc * 100:5.1f}%")

    assert (constrained.meter.train_rounds
            <= prepared.trace.budget_rounds).all(), "budget violated!"
    print("\nno node exceeded its battery budget "
          "(paper: constrained > Greedy > D-PSGD, by up to +12 pp).")


if __name__ == "__main__":
    main()
