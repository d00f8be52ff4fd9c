#!/usr/bin/env python
"""Tuning Γ_train/Γ_sync: a scaled-down version of the paper's Fig. 3
grid search, across two topology densities.

Shows the trade-off the paper optimizes in §4.3: more sync rounds cost
accuracy-per-round but save energy; the optimum shifts toward fewer
sync rounds as the topology gets denser (faster mixing needs less help).

Each grid point is a plan cell whose artifact lands under
``results/`` (a rerun skips the finished ones).

Run:  python examples/schedule_tuning.py
"""

from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD
from repro.experiments import grid_search
from repro.experiments.presets import ExperimentPreset
from repro.nn import small_mlp

SEED = 11


def make_preset() -> ExperimentPreset:
    return ExperimentPreset(
        name="tuning",
        n_nodes=16,
        degrees=(3, 6),
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
        total_rounds=64,
        eval_every=64,
        eval_node_sample=None,
        workload=CIFAR10_WORKLOAD,
        battery_fraction=0.10,
        tuned_schedules={},
    )


def main() -> None:
    preset = make_preset()
    for degree in preset.degrees:
        result = grid_search(
            preset, "results", degree=degree,
            train_values=(1, 2, 3, 4), sync_values=(1, 2, 3, 4),
            seed=SEED,
        )
        print(result.render())
        gt, gs = result.best()
        i = result.sync_values.index(gs)
        j = result.train_values.index(gt)
        print(f"\nbest for {degree}-regular: Γtrain={gt}, Γsync={gs} "
              f"({result.accuracy[i, j] * 100:.1f}% validation accuracy, "
              f"{result.energy_wh[i, j]:.2f} Wh)")
        print("-" * 72)

    print("\npaper's tuned values at 256 nodes: (4,4) for 6-regular, "
          "(3,3) for 8-regular, (4,2) for 10-regular — denser topologies "
          "need fewer sync rounds.")


if __name__ == "__main__":
    main()
